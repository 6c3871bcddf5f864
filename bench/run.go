package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how often a run sets up from scratch. A single set-up is
// the one timing the quiet quantile cannot help, so the run reports the
// median of several.
const setupRepeats = 5

// warmShare of the measuring time is spent replaying before the samples
// count, on top of the fixed warm-up cycles that belong to set-up.
const warmShare = 0.05

// prepared is a rig that has been verified and warmed and is ready to be
// timed, with what getting there cost.
type prepared struct {
	w         *workload
	c         *corpus
	rig       *rig
	corpusGen time.Duration
	setup     time.Duration
	cycleWall time.Duration // wall time of the last warm-up cycle
	digest    string
	problems  []string
}

// prepare does everything between process start and the first timed burst:
// corpus generation, two verification passes over it on fresh engines (the
// second engine is the one that is timed afterwards), and the warm-up.
func prepare(w *workload, seed int64) (*prepared, error) {
	t0 := time.Now()
	p := &prepared{w: w, c: w.corpus(seed)}
	p.corpusGen = time.Since(t0)

	scratch, err := newRig(p.c, w.engineFunc(false))
	if err != nil {
		return nil, err
	}
	first := scratch.cycleDigest()
	_, p.problems = scratch.ledger(w)
	if p.rig, err = scratch.fresh(w.engineFunc(false)); err != nil {
		return nil, err
	}
	p.digest = p.rig.cycleDigest()
	_, problems := p.rig.ledger(w)
	p.problems = append(p.problems, problems...)
	if first != p.digest {
		p.problems = append(p.problems, "two passes over the corpus emitted different bytes")
	}
	if seed == goldenSeed {
		golden, err := goldenDigests()
		if err != nil {
			return nil, err
		}
		if g := golden[w.name]; g != p.digest {
			p.problems = append(p.problems, fmt.Sprintf("digest %s, golden %s", p.digest, g))
		}
	}
	for i := 0; i < w.warmCycles; i++ {
		p.cycleWall = p.rig.cycleUntimed()
	}
	p.setup = time.Since(t0)
	return p, nil
}

// release unmaps the corpus and the receive pool. The rig's engine still
// points into them and must not run again.
func (p *prepared) release() {
	release(p.rig.pool)
	release(p.c.bytes)
	p.rig, p.c = nil, nil
}

// prepareMedian sets up setupRepeats times and returns the last rig with
// the median set-up time. The buffers of one round are unmapped before the
// next starts, so the peak resident size is that of one set-up.
func prepareMedian(w *workload, seed int64) (*prepared, error) {
	var times []time.Duration
	var p *prepared
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.release()
		}
		var err error
		if p, err = prepare(w, seed); err != nil {
			return nil, err
		}
		times = append(times, p.setup)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	p.setup = times[len(times)/2]
	return p, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the printed object.
	quietShare float64
	problems   []string
	order      []string
}

// contendedBelow: a run in which fewer than this share of bursts came near
// the fast tail was measured on a box too busy to show the program's speed.
// It is still reported.
const contendedBelow = 0.05

func (r *result) contended() bool { return r.quietShare < contendedBelow }

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// samplesFor sizes the burst-time series for a pass of d from how long one
// corpus cycle was seen to take, with room for the pass to go twice as
// fast. The series are the one large thing the harness keeps on the heap, so
// they are no larger than that.
func samplesFor(c *corpus, d, cycleWall time.Duration) *samples {
	cycles := int(2*d/cycleWall) + 2
	return newSamples(c.burstsPerSlot, cycles*c.slots)
}

// verdict checks, after timing, everything the timed engine processed: the
// ledger again, and one more hashed cycle against the first. It returns the
// result with correctness and the failed-frame count filled in.
func (p *prepared) verdict(attempted uint64, quietShare float64) *result {
	res := &result{Attempted: attempted, problems: p.problems, quietShare: quietShare}
	failed, problems := p.rig.ledger(p.w)
	res.problems = append(res.problems, problems...)
	if after := p.rig.cycleDigest(); after != p.digest {
		res.problems = append(res.problems, "the cycle after timing emitted different bytes than the cycle before")
		failed += uint64(len(p.c.frames))
	}
	if len(p.problems) > 0 && failed == 0 {
		failed = attempted // set-up verification failed: nothing measured is trusted
	}
	if failed > attempted {
		failed = attempted
	}
	res.Failed = failed
	res.Correct = len(res.problems) == 0
	return res
}

// endToEnd runs one workload with tracing off and reports the end-to-end
// metrics.
func endToEnd(w *workload, seed int64, d time.Duration) (*result, error) {
	p, err := prepareMedian(w, seed)
	if err != nil {
		return nil, err
	}
	r := p.rig
	warm := time.Duration(float64(d) * warmShare)
	r.measure(warm, samplesFor(p.c, warm, p.cycleWall), nil)
	s := samplesFor(p.c, d, p.cycleWall)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pass := r.measure(d, s, nil)
	runtime.ReadMemStats(&m1)

	sum := s.summarize()
	res := p.verdict(pass.frames, sum.quietShare)

	frames := float64(pass.frames)
	res.set("frames_per_sec", float64(p.c.framesPerSlot())/sum.quietSlotNs*1e9, "1/s")
	res.set("alloc_bytes_per_frame", float64(m1.TotalAlloc-m0.TotalAlloc)/frames, "B")
	res.set("allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/frames, "1")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("setup_s", p.setup.Seconds(), "s")
	res.set("frames_ok_share", 1-float64(res.Failed)/frames, "share")

	fmt.Fprintf(os.Stderr, "%s seed %d: %d cycles, %d frames, %d bursts (%d per position), quiet share %.3f, p50 %.1f µs, p99 %.1f µs, max %.1f µs, wall %.0f frames/s, frames_failed_share %g\n",
		w.name, seed, pass.cycles, pass.frames, sum.n, sum.minSamples, sum.quietShare,
		sum.p50/1e3, sum.p99/1e3, sum.max/1e3, frames/pass.wall.Seconds(), float64(res.Failed)/frames)
	return res, nil
}
