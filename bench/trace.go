package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/fh"
	"ranbooster/internal/sim"
)

// sampleEvery: one burst in this many is traced. Fifteen shares no factor
// with the fourteen bursts of a slot, so the samples visit every position.
const sampleEvery = 15

// layerQuantile is the fast-tail quantile of the layer figures: each is the
// quantile, over the sampled bursts, of the stage's time per work item.
// Sampled bursts are too few for the headline's quietQuantile.
const layerQuantile = 0.05

// traceFileBursts bounds how many sampled bursts' spans are written out;
// the metrics are aggregated from all of them.
const traceFileBursts = 512

// How a traced run of d divides its time.
const (
	shareUntraced = 0.25
	shareTraced   = 0.25
	shareEngine   = 0.10 // each of the forward-only and match-all-Tx engines
	shareSpanPass = 0.04 // each of four interleaved passes, engine spans off/on
	shareParallel = 0.05
)

// tracedBurst is rig.burst with spans: the copy, the stage replay and the
// probes on a scratch copy, then the real ingress, timed as always.
func (r *rig) tracedBurst(b int, st *stager) time.Duration {
	r.sched.RunUntil(r.burstStart(b))
	st.burst++
	root := st.open("burst", 0)
	st.root = st.spans[root].ID
	cp := st.open("harness.rx_copy", st.root)
	rx := r.load(b)
	st.close(cp, len(rx))
	// The ingress span is opened first so the replayed stages can name it
	// as their parent; its times are set around the real call below.
	ing := st.open("engine.ingress", st.root)
	st.ingress = st.spans[ing].ID
	st.begin(rx, r.sched.Now())
	st.replay(r.c.burstOut[b])
	st.probe()
	st.spans[ing].Start = st.since()
	t0 := time.Now()
	r.ingress(rx)
	dt := time.Since(t0)
	st.close(ing, len(rx))
	st.close(root, len(rx))
	return dt
}

// perUnit returns, for every span called name, its nanoseconds per work
// item, ascending.
func (st *stager) perUnit(name string) []float64 {
	var out []float64
	for i := range st.spans {
		if sp := &st.spans[i]; sp.Name == name && sp.Units > 0 {
			out = append(out, float64(sp.End-sp.Start)/float64(sp.Units))
		}
	}
	sort.Float64s(out)
	return out
}

// layer is the stage's layerQuantile time per work item.
func (st *stager) layer(name string) float64 { return quantile(st.perUnit(name), layerQuantile) }

// ingressSelf is the median, over the sampled bursts, of the real ingress
// time not covered by the replayed stages, per frame.
func (st *stager) ingressSelf() float64 {
	covered := map[int32]int64{}
	for i := range st.spans {
		if sp := &st.spans[i]; sp.Replayed {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	var self []float64
	for i := range st.spans {
		if sp := &st.spans[i]; sp.Name == "engine.ingress" {
			self = append(self, float64(sp.End-sp.Start-covered[sp.ID])/float64(sp.Units))
		}
	}
	sort.Float64s(self)
	return quantile(self, 0.5)
}

// traceFile is the layout of out/trace_<workload>.json.
type traceFile struct {
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	SampleEvery    int    `json:"sample_every"`
	BurstsSampled  int32  `json:"bursts_sampled"`
	BurstsWritten  int32  `json:"bursts_written"`
	SelfTimeNote   string `json:"self_time"`
	ReplayedStages string `json:"replayed"`
	Spans          []span `json:"spans"`
}

func (st *stager) write(seed int64) (string, error) {
	dir, err := benchDir()
	if err != nil {
		return "", err
	}
	dir = filepath.Join(dir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	n := len(st.spans)
	written := st.burst
	for i := range st.spans {
		if st.spans[i].Burst > traceFileBursts {
			n, written = i, traceFileBursts
			break
		}
	}
	doc := traceFile{
		Workload: st.w.name, Seed: seed, SampleEvery: sampleEvery,
		BurstsSampled: st.burst, BurstsWritten: written,
		SelfTimeNote:   "self time of engine.ingress = its duration minus the durations of the spans that name it as parent",
		ReplayedStages: "a replayed span ran on a scratch copy before the real ingress and stands for the same call inside it; a stage span whose parent is the burst is a probe of a layer the workload does not use",
		Spans:          st.spans[:n],
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+st.w.name+".json")
	return path, os.WriteFile(path, append(out, '\n'), 0o644)
}

// fwdApp forwards every packet as addressed: the least a userspace app can
// do, so an engine running it shows the framework's own cost per frame.
type fwdApp struct{}

func (fwdApp) Name() string { return "fwd" }

func (fwdApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	ctx.Forward(pkt)
	return nil
}

func fwdEngine(s *sim.Scheduler) (*core.Engine, func() appCounts, error) {
	eng, err := core.NewEngine(s, core.Config{Name: "fwd", Mode: core.ModeDPDK, App: fwdApp{}, CarrierPRBs: carrierPRBs})
	return eng, func() appCounts { return appCounts{} }, err
}

// xdpTxEngine retires every frame in kernel through one match-all Tx rule.
func xdpTxEngine(s *sim.Scheduler) (*core.Engine, func() appCounts, error) {
	dst, src := macDU, macMB
	prog := &core.KernelProgram{Rules: []core.Rule{{Verdict: core.VerdictTx, Rewrite: &core.Rewrite{SetDst: &dst, SetSrc: &src}}}}
	eng, err := core.NewEngine(s, core.Config{Name: "xdptx", Mode: core.ModeXDP, Kernel: prog, CarrierPRBs: carrierPRBs})
	return eng, func() appCounts { return appCounts{} }, err
}

// quietNsPerFrame replays r for d and returns the quiet time per frame.
func quietNsPerFrame(r *rig, d time.Duration) float64 {
	s := samplesFor(r.c, d, r.cycleUntimed())
	r.measure(d, s, nil)
	return s.summarize().quietSlotNs / float64(r.c.framesPerSlot())
}

// parallelHandoff pushes the corpus through Start/TryIngress/Stop with one
// worker and returns frames per wall second. Two threads on two contended
// vCPUs do not repeat within a tenth under any estimator, so the figure is
// informational.
func parallelHandoff(c *corpus, mk engineFunc, d time.Duration) (float64, error) {
	r, err := newRig(c, mk)
	if err != nil {
		return 0, err
	}
	if err := r.eng.Start(); err != nil {
		return 0, err
	}
	frames := 0
	start := time.Now()
	for time.Since(start) < d {
		for b := 0; b+1 < len(c.bursts); b++ {
			for _, f := range r.load(b) {
				for !r.eng.TryIngress(f) {
					runtime.Gosched()
				}
				frames++
			}
		}
		r.cycle++
	}
	r.eng.Stop()
	wall := time.Since(start)
	if st := r.eng.Snapshot(); st.RxFrames != uint64(frames) {
		return 0, fmt.Errorf("parallel engine received %d of %d frames", st.RxFrames, frames)
	}
	return float64(frames) / wall.Seconds(), nil
}

// timerNs is the quiet cost of the time.Now pair around a burst.
func timerNs() float64 {
	s := make([]int32, 20000)
	for i := range s {
		t0 := time.Now()
		s[i] = int32(time.Since(t0))
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, layerQuantile)
}

func pct(with, without float64) float64 { return (with - without) / without * 100 }

// layered runs one workload's traced run: an untraced pass and a traced
// pass of the same rig, then the layer engines, and reports the per-layer
// metrics.
func layered(w *workload, seed int64, d time.Duration) (*result, error) {
	part := func(share float64) time.Duration { return time.Duration(float64(d) * share) }
	p, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	r, c := p.rig, p.c

	// Tracing off, as the end-to-end run measures.
	base := samplesFor(c, part(shareUntraced), p.cycleWall)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	basePass := r.measure(part(shareUntraced), base, nil)
	runtime.ReadMemStats(&m1)
	baseSum := base.summarize()

	// Tracing on.
	st := newStager(w, c)
	st.t0 = time.Now()
	traced := samplesFor(c, part(shareTraced), p.cycleWall)
	tracedPass := r.measure(part(shareTraced), traced, st)
	tracedSum := traced.summarize()

	res := p.verdict(basePass.frames+tracedPass.frames, baseSum.quietShare)
	stats := r.eng.Snapshot()
	apps := r.apps()
	seen := r.eng.CounterValue("prb.seen.dl") + r.eng.CounterValue("prb.seen.ul")
	utilized := r.eng.CounterValue("prb.utilized.dl") + r.eng.CounterValue("prb.utilized.ul")

	// The framework alone, on this workload's frames. The main engine is
	// done, so its receive pool passes to these.
	fwdRig, err := r.fresh(fwdEngine)
	if err != nil {
		return nil, err
	}
	fwdNs := quietNsPerFrame(fwdRig, part(shareEngine))
	xdpRig, err := fwdRig.fresh(xdpTxEngine)
	if err != nil {
		return nil, err
	}
	xdpNs := quietNsPerFrame(xdpRig, part(shareEngine))

	// The engine's own span collector, on and off, and the parallel
	// hand-off: both on dmimo_small frames whatever the workload, because
	// the smallest frames are where per-frame overhead shows.
	dm := workloadByName("dmimo_small")
	dc := c
	if w != dm {
		dc = dm.corpus(seed)
	}
	off, err := newRig(dc, dm.engineFunc(false))
	if err != nil {
		return nil, err
	}
	on, err := newRig(dc, dm.engineFunc(true))
	if err != nil {
		return nil, err
	}
	offS := samplesFor(dc, 2*part(shareSpanPass), off.cycleUntimed())
	onS := samplesFor(dc, 2*part(shareSpanPass), on.cycleUntimed())
	for i := 0; i < 2; i++ {
		off.measure(part(shareSpanPass), offS, nil)
		on.measure(part(shareSpanPass), onS, nil)
	}
	par, err := parallelHandoff(dc, dm.engineFunc(false), part(shareParallel))
	if err != nil {
		return nil, err
	}

	path, err := st.write(seed)
	if err != nil {
		return nil, err
	}

	perFrame := float64(c.framesPerSlot())
	headNs := baseSum.quietSlotNs / perFrame
	engineNs := fwdNs
	if w.xdp {
		engineNs = xdpNs
	}
	peek, decode, sched := st.layer(stPeek), st.layer(stDecode), st.layer(stSched)
	share := func(n, of uint64) float64 {
		if of == 0 {
			return 0
		}
		return float64(n) / float64(of)
	}

	res.set("harness.rx_copy_ns_per_frame", st.layer("harness.rx_copy"), "ns")
	res.set("harness.timer_ns_per_burst", timerNs(), "ns")
	res.set("harness.trace_overhead_pct", pct(tracedSum.quietSlotNs, baseSum.quietSlotNs), "%")
	res.set("harness.wall_frames_per_sec", float64(basePass.frames)/basePass.wall.Seconds(), "1/s")
	res.set("harness.burst_p50_us", baseSum.p50/1e3, "us")
	res.set("harness.burst_p99_us", baseSum.p99/1e3, "us")
	res.set("harness.burst_max_us", baseSum.max/1e3, "us")
	res.set("harness.burst_samples", float64(baseSum.n), "count")
	res.set("harness.quiet_share", baseSum.quietShare, "share")
	res.set("harness.corpus_gen_s", p.corpusGen.Seconds(), "s")
	res.set("fh.peek_ns_per_frame", peek, "ns")
	res.set("fh.decode_ns_per_frame", decode, "ns")
	res.set("fh.redirect_ns_per_frame", st.layer(stRedirect), "ns")
	res.set("fh.clone_ns_per_frame", st.layer(stClone), "ns")
	res.set("fh.rebuild_ns_per_frame", st.layer(stRebuild), "ns")
	res.set("oran.uplane_ns_per_frame", st.layer(stUPlane), "ns")
	res.set("oran.cplane_ns_per_frame", st.layer(stCPlane), "ns")
	res.set("bfp.decompress_ns_per_prb", st.layer(stDecompress), "ns")
	res.set("bfp.compress_ns_per_prb", st.layer(stCompress), "ns")
	res.set("bfp.exponents_ns_per_prb", st.layer(stExponents), "ns")
	res.set("iq.addsat_ns_per_prb", st.layer(stAddSat), "ns")
	res.set("core.cache_put_take_ns_per_pkt", st.layer(stCachePut), "ns")
	res.set("core.cache_peek_ns_per_op", st.layer(stCachePeek), "ns")
	res.set("core.cache_swept_pkts", float64(st.cache.Swept()), "count")
	res.set("core.kernel_match_ns_per_rule", st.layer(stMatch), "ns")
	res.set("core.engine_fwd_ns_per_frame", fwdNs, "ns")
	res.set("core.engine_xdp_tx_ns_per_frame", xdpNs, "ns")
	res.set("core.residual_ns_per_frame", fwdNs-peek-decode-sched, "ns")
	res.set("core.ingress_self_ns_per_frame", st.ingressSelf(), "ns")
	res.set("core.rx_frames", float64(stats.RxFrames), "count")
	res.set("core.tx_frames", float64(stats.TxFrames), "count")
	res.set("core.fanout", share(stats.TxFrames, stats.RxFrames), "1")
	res.set("core.kernel_retired_share", share(stats.KernelRetired, stats.RxFrames), "share")
	res.set("core.punt_share", share(stats.Punts, stats.RxFrames), "share")
	res.set("core.par_handoff_frames_per_sec", par, "1/s")
	res.set("sim.sched_ns_per_event", sched, "ns")
	res.set("apps.self_ns_per_frame", headNs-engineNs, "ns")
	res.set("apps.das.merges", float64(apps.merges), "count")
	res.set("apps.rushare.muxed", float64(apps.muxed), "count")
	res.set("apps.rushare.demuxed", float64(apps.demuxed), "count")
	res.set("apps.dmimo.ssb_replicas", float64(apps.ssbReplicas), "count")
	res.set("apps.prbmon.prb_utilized_share", share(utilized, seen), "share")
	res.set("telemetry.span_overhead_pct", pct(onS.summarize().quietSlotNs, offS.summarize().quietSlotNs), "%")
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	res.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	res.set("runtime.heap_inuse_mb", float64(m1.HeapInuse)/(1<<20), "MB")

	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d + %d frames, %d bursts sampled, spans in %s, quiet %.0f ns/frame untraced, %.0f traced\n",
		w.name, seed, basePass.frames, tracedPass.frames, st.burst, path, headNs, tracedSum.quietSlotNs/perFrame)
	return res, nil
}
