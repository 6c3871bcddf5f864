package main

import (
	"testing"
	"time"
)

// small returns a copy of the workload with a four-slot corpus and one
// warm-up cycle, which keeps a test run in the tens of milliseconds. Its
// digests differ from the golden ones, so tests use a seed other than
// goldenSeed.
func small(w *workload) *workload {
	s := *w
	s.slots, s.warmCycles = 4, 1
	return &s
}

const testSeed = 2

// Three replays of the same corpus, each into a fresh engine, emit the same
// bytes and close the ledger: nothing the harness does between replays
// (copying, SeqID stamping, virtual time) leaks from one into the next.
func TestReplaysAreIdentical(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		c := w.corpus(testSeed)
		r, err := newRig(c, w.engineFunc(false))
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for i := 0; i < 3; i++ {
			if i > 0 {
				if r, err = r.fresh(w.engineFunc(false)); err != nil {
					t.Fatal(err)
				}
			}
			digest := r.cycleDigest()
			if failed, problems := r.ledger(w); failed != 0 || len(problems) != 0 {
				t.Errorf("%s replay %d: %d frames failed: %v", w.name, i, failed, problems)
			}
			if i == 0 {
				first = digest
			} else if digest != first {
				t.Errorf("%s replay %d: digest %s, first replay %s", w.name, i, digest, first)
			}
		}
	}
}

// A second cycle through the same engine also closes the ledger on every
// workload but rushare, whose four-slot test corpus wraps onto slot
// coordinates that still have C-plane entries cached; the real corpus is
// longer than the entries live, which the end-to-end run checks after timing.
func TestSecondCycleClosesLedger(t *testing.T) {
	for _, w := range workloads {
		if w.name == "rushare_mux" {
			continue
		}
		w := small(w)
		r, err := newRig(w.corpus(testSeed), w.engineFunc(false))
		if err != nil {
			t.Fatal(err)
		}
		before := r.cycleDigest()
		if after := r.cycleDigest(); after != before {
			t.Errorf("%s: second cycle emitted different bytes", w.name)
		}
		if failed, problems := r.ledger(w); failed != 0 {
			t.Errorf("%s: %d frames failed: %v", w.name, failed, problems)
		}
	}
}

// Engine.Ingress owns and rewrites the frame it is given. A harness that
// replayed the corpus buffers themselves instead of copies would feed the
// second cycle frames already re-addressed from the middlebox, which every
// app drops (and the kernel program punts). This pins that the ledger
// catches such a run rather than timing the drop path. rushare is left out:
// it rebuilds or replicates every frame it forwards and rewrites no input.
func TestUncopiedReplayIsCaught(t *testing.T) {
	for _, w := range workloads {
		if w.name == "rushare_mux" {
			continue
		}
		w := small(w)
		c := w.corpus(testSeed)
		r, err := newRig(c, w.engineFunc(false))
		if err != nil {
			t.Fatal(err)
		}
		// Alias the receive pool to the corpus: load's copy becomes a
		// no-op, SeqIDs are still stamped.
		r.pool, r.copies = c.bytes, 1
		r.rx = [][][]byte{make([][]byte, len(c.frames))}
		for i, f := range c.frames {
			r.rx[0][i] = c.bytes[f.off:f.end:f.end]
		}
		r.cycleUntimed()
		if failed, problems := r.ledger(w); failed != 0 {
			t.Fatalf("%s: first un-copied cycle already fails: %v", w.name, problems)
		}
		r.cycleUntimed()
		failed, _ := r.ledger(w)
		if failed == 0 {
			t.Errorf("%s: replaying rewritten frames went unnoticed", w.name)
		}
		if share := float64(failed) / float64(len(c.frames)); share < 0.5 {
			t.Errorf("%s: only %.0f %% of the second cycle's frames counted failed", w.name, 100*share)
		}
	}
}

// The generator's ground truth for prbmon matches what the codec reads back
// from the frames, independently of the engine.
func TestCorpusGroundTruth(t *testing.T) {
	w := small(workloadByName("prbmon_xdp"))
	c := w.corpus(testSeed)
	if c.seenDL == 0 || c.seenUL == 0 {
		t.Fatal("no port-0 PRBs tracked")
	}
	for _, share := range []float64{float64(c.utilDL) / float64(c.seenDL), float64(c.utilUL) / float64(c.seenUL)} {
		if share < 0.5 || share > 0.7 {
			t.Errorf("utilized share %.3f, want about %.1f", share, signalShare)
		}
	}
	if got := c.framesPerSlot() * c.slots; got != len(c.frames) {
		t.Errorf("frames per slot not constant: %d frames in %d slots", len(c.frames), c.slots)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// A tiny run of each kind prints exactly the metrics, with the units,
// BENCHMARK.json declares, and BENCHMARK.json names exactly the workloads
// the program has.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if workloadByName(sw.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
	}
	w := small(workloadByName("dmimo_small"))
	check := func(kind string, res *result, want []metricSpec) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", kind, res.Correct, res.Failed, res.Attempted, res.problems)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s declared but not printed", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s printed in %q, declared in %q", kind, m.Name, got.Unit, m.Unit)
			}
		}
	}
	res, err := endToEnd(w, testSeed, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	check("end to end", res, spec.EndToEnd)
	if res, err = layered(w, testSeed, 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("per layer", res, spec.PerLayer)
}
