package telemetry

import (
	"sync"
	"testing"
	"time"

	"ranbooster/internal/sim"
)

// The telemetry layer's concurrency contracts, in the mold of
// fabric.TestPortStatsConcurrentRead: every instrument must tolerate
// readers snapshotting while writers record. These tests are meaningful
// under `go test -race`; without synchronization they are data races.

// TestHistConcurrent hammers one Hist from several writers while a reader
// snapshots; every snapshot must be monotone in Count and the final totals
// exact.
func TestHistConcurrent(t *testing.T) {
	const writers, perWriter = 4, 20_000
	var h Hist
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var prev uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < prev {
				t.Errorf("snapshot Count went backwards: %d after %d", s.Count, prev)
				return
			}
			prev = s.Count
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	if s := h.Snapshot(); s.Count != writers*perWriter {
		t.Fatalf("final Count = %d, want %d", s.Count, writers*perWriter)
	}
}

// TestSpanRingConcurrent records spans from several goroutines while a
// reader snapshots. The shard datapath is single-writer, but the ring's
// contract is stronger (any-writer safe) so management-plane probes can
// never corrupt it.
func TestSpanRingConcurrent(t *testing.T) {
	const writers, perWriter = 4, 10_000
	r := NewSpanRing(64)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if got := r.Snapshot(); len(got) > 64 {
				t.Errorf("snapshot longer than capacity: %d", len(got))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Span{EAxC: uint16(w), EnqueuedAt: sim.Time(i)})
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	if r.Recorded() != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), writers*perWriter)
	}
	if got := r.Snapshot(); len(got) != 64 {
		t.Fatalf("retained %d spans, want 64", len(got))
	}
}

// TestTracerConcurrent drives whole tracers the way a parallel engine
// does: one writer per shard-tracer, a reader merging Stats across them.
func TestTracerConcurrent(t *testing.T) {
	const shards, perShard = 4, 10_000
	tracers := make([]*Tracer, shards)
	for i := range tracers {
		tracers[i] = NewTracer(32)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var prev uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			var m TraceStats
			for _, tr := range tracers {
				m = m.Merge(tr.Stats())
			}
			if m.Spans < prev {
				t.Errorf("merged span count went backwards: %d after %d", m.Spans, prev)
				return
			}
			prev = m.Spans
		}
	}()

	var wg sync.WaitGroup
	for i, tr := range tracers {
		wg.Add(1)
		go func(i int, tr *Tracer) {
			defer wg.Done()
			var s Span
			s.Actions = 1 << ActionCache
			for j := 0; j < perShard; j++ {
				s.EAxC = uint16(i)
				s.Stages[StageTotal] = time.Duration(j) * time.Nanosecond
				tr.Record(s)
			}
		}(i, tr)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	var m TraceStats
	for _, tr := range tracers {
		m = m.Merge(tr.Stats())
	}
	if m.Spans != shards*perShard {
		t.Fatalf("merged Spans = %d, want %d", m.Spans, shards*perShard)
	}
	if m.Action[ActionCache].Count != shards*perShard {
		t.Fatalf("merged A3 count = %d, want %d", m.Action[ActionCache].Count, shards*perShard)
	}
}

// TestBusRecorderConcurrent publishes on a Bus from several goroutines
// while subscribers attach and a Recorder is queried — the §3.2 telemetry
// interface under management-plane concurrency.
func TestBusRecorderConcurrent(t *testing.T) {
	const publishers, perPublisher = 4, 5_000
	b := NewBus()
	r := NewRecorder()
	r.Attach(b, "")

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		late := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, name := range r.Names() {
				r.Last(name)
				r.Mean(name)
				r.Series(name) // concurrent Series read mid-storm
			}
			// Each late subscriber makes every later Publish slower and
			// each late recorder keeps every later sample, so a reader
			// that outruns the publishers must stop attaching: unbounded,
			// this loop has been OOM-killed at 16 GB on a busy 2-CPU host.
			if late < 64 {
				late++
				b.Subscribe("probe", func(Sample) {})
				// Attach-during-Publish: late recorders join while the
				// publishers are mid-storm, like a management-plane
				// probe attaching to a running engine.
				NewRecorder().Attach(b, "a")
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := []string{"a", "b", "c", "d"}[p]
			for i := 0; i < perPublisher; i++ {
				b.Publish(Sample{Name: name, At: sim.Time(i), Value: float64(i)})
			}
		}(p)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	for _, name := range []string{"a", "b", "c", "d"} {
		if got := len(r.Series(name)); got != perPublisher {
			t.Fatalf("series %q has %d samples, want %d", name, got, perPublisher)
		}
	}
}
