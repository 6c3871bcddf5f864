package ranbooster_test

// One benchmark per table and figure of the paper's evaluation: each
// iteration regenerates the full result on the simulated testbed. Run
// with `go test -bench=. -benchmem` or a specific target, e.g.
// `go test -bench=BenchmarkFig10a`. The regenerated rows are printed on
// the first iteration so a bench run doubles as a reproduction log.

import (
	"fmt"
	"sync"
	"testing"

	"ranbooster"
	"ranbooster/internal/benchreg"
)

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	run, ok := ranbooster.Experiments[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := run()
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.Logf("\n%s", table)
		}
	}
}

// Correctness results (§6.2).
func BenchmarkTable2DMIMO(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig10aDAS(b *testing.B)        { benchExperiment(b, "fig10a") }
func BenchmarkFig10bRUSharing(b *testing.B)  { benchExperiment(b, "fig10b") }
func BenchmarkFig10cPRBMonitor(b *testing.B) { benchExperiment(b, "fig10c") }

// Benefits (§6.3).
func BenchmarkFig11FloorOptions(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12NeutralHost(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13Upgrade(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14Energy(b *testing.B)       { benchExperiment(b, "fig14") }

// Microbenchmarks (§6.4).
func BenchmarkFig15aScalability(b *testing.B) { benchExperiment(b, "fig15a") }
func BenchmarkFig15bLatency(b *testing.B)     { benchExperiment(b, "fig15b") }
func BenchmarkFig16DPDKvsXDP(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkTable1Placement(b *testing.B)   { benchExperiment(b, "table1") }

// Interoperability (§6.2) and §8.1 extensions.
func BenchmarkInteropStacks(b *testing.B) { benchExperiment(b, "interop") }

// Appendix A.2.
func BenchmarkCostsA2(b *testing.B) { benchExperiment(b, "costs") }

// Design-choice ablations (DESIGN.md §5).
func BenchmarkAblateAlignment(b *testing.B) { benchExperiment(b, "ablate-alignment") }
func BenchmarkAblateEstimator(b *testing.B) { benchExperiment(b, "ablate-estimator") }
func BenchmarkAblateSSB(b *testing.B)       { benchExperiment(b, "ablate-ssb") }
func BenchmarkAblateWidening(b *testing.B)  { benchExperiment(b, "ablate-widening") }
func BenchmarkAblateXDPPlace(b *testing.B)  { benchExperiment(b, "ablate-xdp-placement") }

// BenchmarkEngineParallel measures the sharded datapath's wall-clock
// throughput: b.N frames across 8 antenna streams pushed through parallel
// workers, at 1, 2 and 4 cores. frames/sec is reported; the 4-core run
// should sustain well over 2x the single-core rate. The workload lives in
// internal/benchreg, shared with cmd/benchreg's BENCH_*.json snapshots.
func BenchmarkEngineParallel(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), benchreg.EngineBench(cores, false))
	}
}

// BenchmarkEngineTraced is the same workload with the frame-span trace
// collector recording every packet; comparing against
// BenchmarkEngineParallel at equal core counts isolates the observability
// overhead on the service-pause workload; TestTracingOverhead in
// internal/benchreg gates it on the sleep-free inline datapath (0 added
// allocs/frame, median of interleaved pairs).
func BenchmarkEngineTraced(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), benchreg.EngineBench(cores, true))
	}
}

// BenchmarkEngineScale is the skewed-load admission axis: four hot eAxC
// streams whose RU-port nibbles collide on one shard under the static
// hash, driven through the static layout and the work-stealing pool at
// equal core counts. The worksteal/cores=4 row should approach 4x the
// hash row; cmd/benchreg records the matrix (plus the metro scenario
// points) to BENCH_8.json.
func BenchmarkEngineScale(b *testing.B) {
	for _, layout := range []struct {
		name string
		ws   bool
	}{{"hash", false}, {"worksteal", true}} {
		for _, cores := range []int{1, 4} {
			b.Run(fmt.Sprintf("layout=%s/cores=%d", layout.name, cores),
				benchreg.SkewBench(cores, layout.ws))
		}
	}
}

// BenchmarkEngineBurst is the burst-size × core-count axis: the same
// frame mix through a burst-aware app (core.BurstApp), whose per-burst
// service pause amortizes the per-frame wakeup the per-frame axis pays.
// Comparing batch=1 against larger batches at equal core counts isolates
// the burst win; cmd/benchreg records the matrix to BENCH_6.json.
func BenchmarkEngineBurst(b *testing.B) {
	for _, batch := range []int{16, 32, 64} {
		for _, cores := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("batch=%d/cores=%d", batch, cores), benchreg.BurstBench(cores, batch))
		}
	}
}
