package ranbooster_test

// One benchmark per table and figure of the paper's evaluation: each
// iteration regenerates the full result on the simulated testbed. Run
// with `go test -bench=. -benchmem` or a specific target, e.g.
// `go test -bench=BenchmarkFig10a`. The regenerated rows are printed on
// the first iteration so a bench run doubles as a reproduction log.

import (
	"sync"
	"testing"

	"ranbooster"
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
