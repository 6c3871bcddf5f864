package sim

import (
	"encoding/binary"
	"sort"
	"testing"
)

// refSched is the reference model the scheduler is checked against: a
// slice of pending events kept in order by a stable sort on the timestamp,
// which — events being appended in sequence order — is the (at, seq) total
// order by definition.
type refSched struct {
	now     Time
	pending []refEvent
	nRun    uint64
}

type refEvent struct {
	at Time
	id int
}

func (r *refSched) at(t Time, id int) {
	if t < r.now {
		t = r.now
	}
	r.pending = append(r.pending, refEvent{t, id})
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
}

func (r *refSched) step(fire func(id int)) bool {
	if len(r.pending) == 0 {
		return false
	}
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.at
	r.nRun++
	fire(e.id)
	return true
}

func (r *refSched) runUntil(t Time, fire func(id int)) {
	for len(r.pending) > 0 && r.pending[0].at <= t {
		r.step(fire)
	}
	if r.now < t {
		r.now = t
	}
}

// firing is one executed event as the differential test logs it.
type firing struct {
	id int
	at Time
}

// world is one side of the differential run. Each side owns an identically
// seeded RNG that it consumes as its events fire, so the events an event
// schedules are the same on both sides exactly as long as the firing order
// is — and a divergence shows up in the logs.
type world struct {
	rng      *RNG
	log      []firing
	nextID   int
	quiet    bool // draining: fired events schedule nothing further
	now      func() Time
	schedule func(t Time, id int)
}

// delta draws a time offset that is often negative (a past time, clamped to
// now) and coarse enough that equal timestamps are common.
func delta(r *RNG) Duration { return Duration(r.Intn(24)-4) * 10 }

// add schedules a new event d from now.
func (w *world) add(d Duration) {
	w.nextID++
	w.schedule(w.now().Add(d), w.nextID)
}

// fire logs the event and lets it schedule up to two further ones.
func (w *world) fire(id int) {
	w.log = append(w.log, firing{id, w.now()})
	if w.quiet {
		return
	}
	for n := w.rng.Intn(8); n > 5; n-- {
		w.add(delta(w.rng))
	}
}

// worldSink delivers frame events to the world: the frame carries the id.
type worldSink struct{ w *world }

func (k worldSink) DeliverFrame(frame []byte) { k.w.fire(int(binary.BigEndian.Uint32(frame))) }

// TestSchedulerDifferential drives the scheduler and the reference model
// with the same seeded mix of At, AtFrame, After, Step, RunUntil and RunFor
// — past-time and equal-time inserts and events that schedule further
// events included — and requires the same clock, counts and firing order
// after every operation.
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		s := NewScheduler()
		ref := &refSched{}
		got := &world{rng: NewRNG(seed), now: s.Now}
		want := &world{rng: NewRNG(seed), now: func() Time { return ref.now }}
		sink := worldSink{got}
		got.schedule = func(at Time, id int) {
			switch id % 3 {
			case 0:
				s.At(at, func() { got.fire(id) })
			case 1:
				frame := make([]byte, 4)
				binary.BigEndian.PutUint32(frame, uint32(id))
				s.AtFrame(at, sink, frame)
			default:
				s.After(at.Sub(s.Now()), func() { got.fire(id) })
			}
		}
		want.schedule = ref.at

		ops := NewRNG(seed ^ 0xfeed)
		for op := 0; op < 3000; op++ {
			switch k := ops.Intn(10); {
			case k < 5:
				d := delta(ops)
				got.add(d)
				want.add(d)
			case k < 8:
				if g, w := s.Step(), ref.step(want.fire); g != w {
					t.Fatalf("seed %d op %d: Step() = %v, want %v", seed, op, g, w)
				}
			case k < 9:
				d := delta(ops) * 3
				s.RunUntil(s.Now().Add(d))
				ref.runUntil(ref.now.Add(d), want.fire)
			default:
				d := Duration(ops.Intn(100))
				s.RunFor(d)
				ref.runUntil(ref.now.Add(d), want.fire)
			}
			if s.Now() != ref.now || s.Pending() != len(ref.pending) || s.Processed() != ref.nRun {
				t.Fatalf("seed %d op %d: now/pending/processed = %v/%d/%d, want %v/%d/%d", seed, op,
					s.Now(), s.Pending(), s.Processed(), ref.now, len(ref.pending), ref.nRun)
			}
		}
		got.quiet, want.quiet = true, true
		s.Run()
		for ref.step(want.fire) {
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: firing %d = %+v, want %+v", seed, i, got.log[i], want.log[i])
			}
		}
		if s.Pending() != 0 || s.Processed() != ref.nRun {
			t.Fatalf("seed %d: pending %d processed %d after Run, want 0 and %d", seed, s.Pending(), s.Processed(), ref.nRun)
		}
		// A drained queue must not pin what it delivered.
		for i, e := range s.events[:cap(s.events)] {
			if e.fn != nil || e.sink != nil || e.frame != nil {
				t.Fatalf("seed %d: vacated slot %d still holds its event", seed, i)
			}
		}
	}
}

type countSink struct{ frames, bytes int }

func (c *countSink) DeliverFrame(frame []byte) { c.frames++; c.bytes += len(frame) }

// TestAtFrameSteadyStateAllocs pins the point of the frame event: once the
// heap has grown, scheduling a frame and stepping it allocates nothing, at
// any depth of backlog.
func TestAtFrameSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	sink := &countSink{}
	frame := make([]byte, 64)
	for i := 0; i < 128; i++ { // a standing backlog, so both sifts do work
		s.AtFrame(Time(i%7)*100, sink, frame)
	}
	n := 0
	avg := testing.AllocsPerRun(1000, func() {
		s.AtFrame(s.Now().Add(Duration(n%5)*50), sink, frame)
		s.Step()
		n++
	})
	if avg != 0 {
		t.Fatalf("AtFrame + Step allocates %.2f objects/event, want 0", avg)
	}
	s.Run()
	if sink.frames != 128+1001 { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("delivered %d frames, want %d", sink.frames, 128+1001)
	}
}

// BenchmarkSchedulerAtRun is the inline datapath's egress pattern: one
// slot's worth of frames (116, dmimo_small's) scheduled at nondecreasing
// finish times, then drained. One op is one event.
func BenchmarkSchedulerAtRun(b *testing.B) {
	const burst = 116
	frame := make([]byte, 64)
	run := func(b *testing.B, schedule func(s *Scheduler, at Time)) {
		s := NewScheduler()
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; left -= burst {
			at := s.Now()
			for i := 0; i < burst && i < left; i++ {
				schedule(s, at.Add(Duration(i/4)))
			}
			s.Run()
		}
	}
	b.Run("AtFrame", func(b *testing.B) {
		sink := &countSink{}
		run(b, func(s *Scheduler, at Time) { s.AtFrame(at, sink, frame) })
	})
	b.Run("At", func(b *testing.B) {
		sink := &countSink{}
		run(b, func(s *Scheduler, at Time) { s.At(at, func() { sink.DeliverFrame(frame) }) })
	})
}
