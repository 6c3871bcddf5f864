// Package sim provides the discrete-event simulation substrate on which the
// whole RANBooster testbed runs.
//
// The paper's system operates against wall-clock deadlines measured in tens
// of microseconds, enforced by PTP-synchronized hardware. A garbage-collected
// runtime cannot honour those deadlines in real time, so the reproduction
// runs every component (DU, RU, fabric, middlebox engines) on a shared
// virtual clock: events are executed in timestamp order and "processing
// time" is charged by advancing virtual time, which makes deadline checks
// exact and runs deterministic.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration aliases time.Duration for readability at call sites; virtual
// durations have the same nanosecond granularity as real ones.
type Duration = time.Duration

// String renders the time with microsecond precision, the natural unit of
// fronthaul timing.
func (t Time) String() string {
	return fmt.Sprintf("t=%.3fµs", float64(t)/1e3)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// FrameSink receives the frames of AtFrame events: "deliver this frame at
// virtual time t" without a closure. Whoever defers one frame per event —
// a datapath egress, a link — implements it once and schedules the frames
// themselves, instead of allocating a func that captures each one.
type FrameSink interface {
	DeliverFrame(frame []byte)
}

// event is one queue entry, stored by value in the heap. Exactly one of fn
// (At/After) and sink (AtFrame) is set.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among equal timestamps
	fn    func()
	sink  FrameSink
	frame []byte
}

// before is the queue's total order: by timestamp, then by insertion.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all actors run callbacks on the scheduler goroutine,
// which mirrors the run-to-completion model of a DPDK poll loop.
//
// The queue is a binary min-heap of event values ordered by (at, seq):
// scheduling and stepping move events inside one slice and allocate
// nothing once the slice has grown to the high-water mark.
type Scheduler struct {
	now    Time
	events []event
	seq    uint64
	nRun   uint64
}

// NewScheduler returns a scheduler positioned at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Processed reports how many events have executed, useful for progress
// assertions in tests.
func (s *Scheduler) Processed() uint64 { return s.nRun }

// At schedules fn to run at virtual time t. Scheduling in the past (or the
// present) runs the event at the current time after already-queued events
// with earlier sequence numbers.
func (s *Scheduler) At(t Time, fn func()) { s.push(event{at: t, fn: fn}) }

// AtFrame schedules sink.DeliverFrame(frame) at virtual time t. It orders
// with At events in the one queue — same clamping, same FIFO tie-break —
// but needs no closure: the sink and the frame ride in the event. The
// scheduler holds frame until the event fires.
func (s *Scheduler) AtFrame(t Time, sink FrameSink, frame []byte) {
	s.push(event{at: t, sink: sink, frame: frame})
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// push clamps e to the present, stamps its sequence number and sifts it up
// from the end of the heap, moving parents down into the hole.
func (s *Scheduler) push(e event) {
	if e.at < s.now {
		e.at = s.now
	}
	s.seq++
	e.seq = s.seq
	h := append(s.events, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.events = h
}

// pop removes and returns the earliest event; the queue must not be empty.
// The vacated tail slot is zeroed so a delivered frame is not pinned by the
// slice's spare capacity.
func (s *Scheduler) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	s.events = h
	if n == 0 {
		return top
	}
	// Sift last down from the root, moving the smaller child up.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.nRun++
	if e.sink != nil {
		e.sink.DeliverFrame(e.frame)
	} else {
		e.fn()
	}
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain queued.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

// Clock is a read-only view of virtual time. *Scheduler implements it for
// code running on the scheduler goroutine. Code running OFF the scheduler
// goroutine (real worker threads, as in the parallel datapath engine) must
// not read the advancing scheduler clock — that would race with event
// execution and make runs irreproducible. Such code receives a Frozen
// clock instead: virtual time stands still while wall-clock workers run,
// which keeps every virtual-time computation deterministic.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
}

// Frozen returns a Clock pinned at t — the deterministic time source for
// worker goroutines detached from the scheduler.
func Frozen(t Time) Clock { return frozenClock(t) }

type frozenClock Time

func (c frozenClock) Now() Time { return Time(c) }

// monotonicEpoch is the origin of Monotonic; time.Since on it reads the
// runtime's monotonic clock, immune to wall-clock steps.
var monotonicEpoch = time.Now()

// Monotonic returns the process's monotonic wall-clock reading, in
// nanoseconds since start-up. It is NOT virtual time and never feeds the
// seeded datapath: it times goroutines that run on wall time (the parallel
// engine's shard workers), for which elapsed scheduler time means nothing.
// Values compare only with other Monotonic readings.
func Monotonic() Time { return Time(time.Since(monotonicEpoch)) }

// Ticker invokes fn every period until the returned stop function is called.
// The first invocation happens one period from now.
func (s *Scheduler) Ticker(period Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			s.After(period, tick)
		}
	}
	s.After(period, tick)
	return func() { stopped = true }
}
