package testbed

import (
	"reflect"
	"runtime"
	"testing"

	"ranbooster/internal/core"
	"ranbooster/internal/fault"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// soakSlots is the metro soak length: the full run is what `make soak`
// executes; CI's -short pass keeps the same scenario at a tenth of the
// duration.
func soakSlots(t *testing.T) int {
	if testing.Short() {
		return 1_000
	}
	return 10_000
}

func goroutines() int {
	runtime.GC()
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// TestMetroSoak is the seeded metro soak of a 2-chain / 64-RU / 256-stream
// scenario over 10k+ sim slots: frame conservation must balance at every
// hop and end to end, per-eAxC FIFO must hold across both chain hops, the
// fabric must never flood or drop (the FDB is primed), and the run must
// not leak a single goroutine (the deterministic engines spawn none).
func TestMetroSoak(t *testing.T) {
	before := goroutines()
	m, err := NewMetro(MetroConfig{
		Floors: 16, CellsPerFloor: 4, PortsPerRU: 4,
		ChainDepth: 2,
		Cores:      4,
		Scale:      core.ScalePolicy{WorkSteal: true},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RunSlots(soakSlots(t))
	m.Flush() // touch every stream so the sink has seen all 256

	rep := m.Conservation(0)
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	sink := m.Sink()
	if sink.Delivered != m.Injected() {
		t.Fatalf("clean fabric lost frames: injected %d, delivered %d", m.Injected(), sink.Delivered)
	}
	if sink.Gaps != 0 || sink.Duplicates != 0 || sink.Reordered != 0 || sink.ParseErrors != 0 {
		t.Fatalf("per-eAxC FIFO violated across the chain: %+v", sink)
	}
	if want := m.Config().Streams(); sink.Streams != want {
		t.Fatalf("sink saw %d streams, want %d", sink.Streams, want)
	}
	for k, e := range m.Engines {
		st := e.Snapshot()
		if st.SeqGaps != 0 || st.Duplicates != 0 || st.Reordered != 0 {
			t.Fatalf("hop %d saw sequence damage on a clean fabric: %+v", k, st)
		}
	}
	for _, sw := range m.Topo.Switches() {
		if sw.Flooded() != 0 || sw.Dropped() != 0 {
			t.Fatalf("%v flooded %d / dropped %d despite FDB priming", sw, sw.Flooded(), sw.Dropped())
		}
	}
	if after := goroutines(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// metroFaultRun executes the chained-middlebox fault scenario once:
// Gilbert–Elliott burst loss on the inter-hop trunk (hop 0 → hop 1
// direction only), after a warmup that establishes every stream's
// sequence baseline at every hop so each subsequent drop is countable.
func metroFaultRun(t *testing.T, seed uint64) (ConservationReport, fault.Stats) {
	t.Helper()
	m, err := NewMetro(MetroConfig{
		Floors: 8, CellsPerFloor: 4, PortsPerRU: 4,
		ChainDepth: 2,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Flush() // warmup: every hop and the sink see every stream once

	inj := fault.NewInjector(m.Sched, sim.NewRNG(seed^0xFA01), fault.Profile{
		Burst: &fault.GilbertElliott{
			PGoodToBad: 0.02, PBadToGood: 0.25,
			LossGood: 0, LossBad: 0.8,
		},
	})
	inj.Attach(m.Trunks[0].B)
	slots := 2_000
	if testing.Short() {
		slots = 400
	}
	m.RunSlots(slots)
	inj.Detach(m.Trunks[0].B)
	m.Flush() // surface tail drops as gaps on every stream

	return m.Conservation(inj.Stats().Dropped), inj.Stats()
}

// TestMetroChainFaultAccounting pins the exact loss-accounting identity
// of a chained deployment: the downstream engine's SeqGaps counter must
// equal the trunk injector's drop count frame for frame — no drift, no
// double counting — and the end-to-end conservation ledger must balance
// with the trunk loss included. The upstream engine, ahead of the fault,
// must see no damage at all.
func TestMetroChainFaultAccounting(t *testing.T) {
	rep, fs := metroFaultRun(t, 7)
	if fs.Dropped == 0 {
		t.Fatal("fault profile dropped nothing; the test exercises no accounting")
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	// Injector sits between hop 0 and hop 1: hop 0 is untouched.
	if rep.Hops[0].Arrived != rep.Injected || rep.Hops[0].Lost != 0 {
		t.Fatalf("upstream hop disturbed by downstream fault: %+v", rep.Hops[0])
	}
	if got, want := rep.Hops[1].Arrived, rep.Hops[0].Forwarded-fs.Dropped; got != want {
		t.Fatalf("hop 1 arrivals %d, want forwarded %d - dropped %d = %d",
			got, rep.Hops[0].Forwarded, fs.Dropped, want)
	}
	if rep.Sink.Gaps != fs.Dropped {
		t.Fatalf("sink gap accounting drifted: %d gaps, injector dropped %d", rep.Sink.Gaps, fs.Dropped)
	}
	if rep.Sink.Duplicates != 0 || rep.Sink.Reordered != 0 {
		t.Fatalf("loss-only fault produced FIFO violations: %+v", rep.Sink)
	}
}

// TestMetroChainFaultDeterminism replays the fault scenario with the
// same seed and requires bit-identical accounting: same injector
// decisions, same per-hop ledgers, same sink observations.
func TestMetroChainFaultDeterminism(t *testing.T) {
	rep1, fs1 := metroFaultRun(t, 99)
	rep2, fs2 := metroFaultRun(t, 99)
	if fs1 != fs2 {
		t.Fatalf("injector stats diverged between same-seed runs:\n%v\n%v", fs1, fs2)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("conservation reports diverged between same-seed runs:\n%+v\n%+v", rep1, rep2)
	}
}

// TestMetroScaleCompletes runs the acceptance-scale scenario — 256 RUs,
// 1024 eAxC streams, chain depth 3 — to completion with work-stealing
// engines and bounded goroutines, verifying the conservation ledger,
// that every stream makes it through all three hops, and that the span
// collectors on every hop report populated, ordered sojourn percentiles.
func TestMetroScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("metro acceptance scale skipped in short mode")
	}
	before := goroutines()
	m, err := NewMetro(MetroConfig{
		Floors: 64, CellsPerFloor: 4, PortsPerRU: 4,
		ChainDepth:  3,
		Cores:       4,
		Scale:       core.ScalePolicy{WorkSteal: true},
		Trace:       true,
		MeanPerSlot: 0.5,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().Streams(); got != 1024 {
		t.Fatalf("scenario holds %d streams, want 1024", got)
	}
	m.RunSlots(200)
	m.Flush()

	rep := m.Conservation(0)
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	sink := m.Sink()
	if sink.Streams != 1024 || sink.Delivered != m.Injected() {
		t.Fatalf("scale run incomplete: %+v of %d injected", sink, m.Injected())
	}
	if sink.Gaps != 0 || sink.Duplicates != 0 || sink.Reordered != 0 {
		t.Fatalf("FIFO violated at scale: %+v", sink)
	}
	var tr telemetry.TraceStats
	for _, e := range m.Engines {
		if st := e.Snapshot(); st.Trace != nil {
			tr = tr.Merge(*st.Trace)
		}
	}
	p50, _ := tr.Stage[telemetry.StageTotal].Quantile(0.50)
	p99, _ := tr.Stage[telemetry.StageTotal].Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("sojourn percentiles malformed: p50 %v, p99 %v", p50, p99)
	}
	if after := goroutines(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
