// Command ranboosterd runs a RANBooster middlebox deployment on the
// simulated enterprise testbed and reports live KPIs — the operational
// face of the framework: pick an application, a datapath, a duration.
//
// Usage:
//
//	ranboosterd -app das -mode dpdk -duration 500ms
//	ranboosterd -app dmimo -mode xdp
//	ranboosterd -app rushare
//	ranboosterd -app prbmon -load 400
//	ranboosterd -app prbmon -loss 0.05   # 5% loss on every fabric link
//	ranboosterd -app das -metrics :9090 -pprof      # Prometheus /metrics + pprof
//	ranboosterd -app das -trace -tracedump -        # slot replay of frame spans
//	ranboosterd -app das -trace -pcap run.pcap      # spans correlate with capture
//	ranboosterd -panic-every 1000                   # supervision demo: panic isolation
//	ranboosterd -stall-after 50ms -panic-every 250  # + watchdog restart of a wedged shard
//	ranboosterd -floors 8 -cells 4 -chain 3         # metro scenario: chained middleboxes
//	ranboosterd -floors 16 -chain 2 -metrics :9090  # live metrics across the whole chain
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"ranbooster/internal/air"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fault"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/pcap"
	"ranbooster/internal/phy"
	"ranbooster/internal/radio"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
	"ranbooster/internal/testbed"
)

func main() {
	app := flag.String("app", "das", "middlebox application: das | dmimo | rushare | prbmon")
	modeS := flag.String("mode", "dpdk", "datapath: dpdk | xdp")
	dur := flag.Duration("duration", 500*time.Millisecond, "simulated run time after settling")
	load := flag.Float64("load", 500, "offered downlink load per UE, Mbps")
	loss := flag.Float64("loss", 0, "i.i.d. frame loss probability injected on every fabric link")
	metrics := flag.String("metrics", "", "serve a Prometheus /metrics endpoint on this address (e.g. :9090) for the duration of the run")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics address")
	trace := flag.Bool("trace", false, "enable the frame-span trace collector on the middlebox engine")
	traceDump := flag.String("tracedump", "", "write a slot-replay of the recorded frame spans to this path after the run (\"-\" for stdout; implies -trace)")
	pcapPath := flag.String("pcap", "", "capture every frame crossing the fabric to this pcap file")
	panicEvery := flag.Int("panic-every", 0, "supervision demo: the App panics every Nth invocation; the engine isolates and quarantines (implies the standalone supervision harness)")
	stallAfterF := flag.Duration("stall-after", 0, "supervision demo: shard-watchdog deadline, wall clock (keep it above the host's worst goroutine preemption, tens of ms); the App also wedges once mid-run so the hitless restart is exercised (implies the standalone supervision harness)")
	floors := flag.Int("floors", 0, "metro scenario: number of floors (implies the standalone metro harness; see -cells and -chain)")
	cellsPerFloor := flag.Int("cells", 0, "metro scenario: cells per floor")
	chain := flag.Int("chain", 0, "metro scenario: middlebox chain depth (engines traversed in sequence)")
	flag.Parse()
	if *panicEvery < 0 || *stallAfterF < 0 {
		fmt.Fprintln(os.Stderr, "-panic-every and -stall-after must be non-negative")
		os.Exit(2)
	}
	if *panicEvery > 0 || *stallAfterF > 0 {
		superviseDemo(*panicEvery, *stallAfterF, *dur, *metrics)
		return
	}
	if *floors < 0 || *cellsPerFloor < 0 || *chain < 0 {
		fmt.Fprintln(os.Stderr, "-floors, -cells and -chain must be non-negative")
		os.Exit(2)
	}
	if *floors > 0 || *cellsPerFloor > 0 || *chain > 0 {
		metroDemo(*floors, *cellsPerFloor, *chain, *dur, *metrics, *trace, *modeS == "xdp")
		return
	}
	if *loss < 0 || *loss >= 1 {
		fmt.Fprintf(os.Stderr, "-loss must be in [0, 1), got %v\n", *loss)
		os.Exit(2)
	}
	if *traceDump != "" {
		*trace = true
	}
	if *pprofOn && *metrics == "" {
		fmt.Fprintln(os.Stderr, "-pprof requires -metrics <addr>")
		os.Exit(2)
	}

	mode := core.ModeDPDK
	if *modeS == "xdp" {
		mode = core.ModeXDP
	}
	tb := testbed.New(42)
	var engine *core.Engine
	var ues []*air.UE

	switch *app {
	case "das":
		cell := testbed.CellConfig("cell0", 1, testbed.Carrier100(), phy.StackSRSRAN, 4)
		var pos []radio.Point
		for f := 0; f < testbed.Floors; f++ {
			pos = append(pos, testbed.RUPosition(f, 1))
		}
		dep, err := tb.DASCell("das", cell, pos, testbed.DASOpts{Mode: mode, Cores: 2})
		exitOn(err)
		engine = dep.Engine
		for f := 0; f < testbed.Floors; f++ {
			ues = append(ues, tb.AddUE(f, testbed.RUXPositions[1]+4, radio.FloorWidth/2))
		}
	case "dmimo":
		cell := testbed.CellConfig("cell0", 1, testbed.Carrier100(), phy.StackSRSRAN, 4)
		pos := []radio.Point{testbed.RUPosition(0, 1), testbed.RUPosition(0, 2)}
		dep, err := tb.DMIMOCell("dmimo", cell, pos, testbed.DMIMOOpts{Mode: mode, PortsPerRU: 2})
		exitOn(err)
		engine = dep.Engine
		ues = append(ues, tb.AddUE(0, (testbed.RUXPositions[1]+testbed.RUXPositions[2])/2, radio.FloorWidth/2))
	case "rushare":
		ruCarrier := testbed.Carrier100()
		duPRBs := phy.PRBsFor(40)
		cells := []air.CellConfig{
			testbed.CellConfig("mnoA", 11, phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ruCarrier, 0, duPRBs), NumPRB: duPRBs}, phy.StackSRSRAN, 4),
			testbed.CellConfig("mnoB", 12, phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ruCarrier, ruCarrier.NumPRB-duPRBs, duPRBs), NumPRB: duPRBs}, phy.StackSRSRAN, 4),
		}
		dep, err := tb.SharedRU("share", ruCarrier, testbed.RUPosition(0, 0), cells, mode)
		exitOn(err)
		engine = dep.Engine
		a := tb.AddUE(0, testbed.RUXPositions[0]+4, radio.FloorWidth/2)
		a.AllowedCell = "mnoA"
		b := tb.AddUE(0, testbed.RUXPositions[0]-4, radio.FloorWidth/2)
		b.AllowedCell = "mnoB"
		ues = append(ues, a, b)
	case "prbmon":
		cell := testbed.CellConfig("cell0", 1, testbed.Carrier100(), phy.StackSRSRAN, 4)
		dep, err := tb.MonitoredCell("mon", cell, testbed.RUPosition(0, 0), testbed.MonitorOpts{Mode: mode})
		exitOn(err)
		engine = dep.Engine
		rec := telemetry.NewRecorder()
		rec.Attach(dep.Engine.Bus(), "")
		defer func() {
			for _, name := range rec.Names() {
				fmt.Printf("telemetry %-22s mean %.3f (%d samples)\n", name, rec.Mean(name), len(rec.Series(name)))
			}
		}()
		ues = append(ues, tb.AddUE(0, testbed.RUXPositions[0]+4, radio.FloorWidth/2))
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}

	if *trace {
		exitOn(engine.EnableTracing(0))
	}
	var pcapErr error
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		exitOn(err)
		defer f.Close()
		w := pcap.NewWriter(f)
		tb.Switch.SetTap(func(frame []byte) {
			if pcapErr == nil {
				pcapErr = w.WritePacket(time.Duration(tb.Sched.Now()), frame)
			}
		})
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		exitOn(err)
		defer ln.Close()
		mux := http.NewServeMux()
		// The handler touches only race-safe readouts (engine snapshot,
		// shared counters, trace histograms, atomic port stats), so
		// scraping is sound even while parallel workers run.
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			p := telemetry.NewPromWriter(w)
			engine.WriteMetrics(p)
			tb.Switch.WriteMetrics(p)
		})
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("serving /metrics on %v (pprof: %v)\n", ln.Addr(), *pprofOn)
	}

	for _, u := range ues {
		u.OfferedDLbps = *load * 1e6
		u.OfferedULbps = *load * 1e6 / 10
	}
	fmt.Printf("%s middlebox (%s datapath): settling...\n", *app, mode)
	tb.Settle()
	attached := 0
	for _, u := range ues {
		if u.Attached() {
			attached++
		}
	}
	fmt.Printf("%d/%d UEs attached; running %v of traffic\n", attached, len(ues), *dur)

	// Fault injection goes live only after settling: attachment happens on
	// a clean fabric, then the measured window sees the configured loss on
	// every device link.
	var injectors []*fault.Injector
	if *loss > 0 {
		for _, p := range tb.Switch.Ports() {
			inj := fault.NewInjector(tb.Sched, tb.RNG.Fork(), fault.Profile{Drop: *loss})
			inj.Attach(p)
			injectors = append(injectors, inj)
		}
		fmt.Printf("fault injection: %.1f%% i.i.d. loss on %d links\n", *loss*100, len(injectors))
	}
	engine.ResetMeasurement()
	tb.Measure(*dur)

	now := tb.Sched.Now()
	var dl, ul float64
	for _, u := range ues {
		dl += u.ThroughputDLbps(now)
		ul += u.ThroughputULbps(now)
	}
	st := engine.Snapshot()
	fmt.Printf("aggregate goodput: DL %.1f Mbps, UL %.1f Mbps\n", dl/1e6, ul/1e6)
	fmt.Printf("middlebox: rx %d tx %d frames, kernelTx %d, punts %d, utilization %.1f%%\n",
		st.RxFrames, st.TxFrames, st.KernelTx, st.Punts, engine.Utilization()*100)
	if lat, ok := engine.LatencyPercentile(core.ClassULU, 0.99); ok {
		fmt.Printf("UL U-plane p99 processing: %v\n", lat)
	}
	if len(injectors) > 0 {
		var fs fault.Stats
		for _, inj := range injectors {
			fs = fs.Add(inj.Stats())
		}
		fmt.Printf("faults: dropped %d of %d frames; engine saw seq gaps %d, shed %d, health %v\n",
			fs.Dropped, fs.Injected, st.SeqGaps, st.ShedUPlane+st.ShedPRACH, st.Health)
	}
	if *trace && st.Trace != nil {
		fmt.Println()
		exitOn(telemetry.DumpTraceStats(os.Stdout, *st.Trace))
	}
	if *traceDump != "" {
		out := os.Stdout
		if *traceDump != "-" {
			f, err := os.Create(*traceDump)
			exitOn(err)
			defer f.Close()
			out = f
		}
		exitOn(telemetry.DumpTrace(out, engine.TraceSpans()))
		if *traceDump != "-" {
			fmt.Printf("wrote frame-span replay to %s\n", *traceDump)
		}
	}
	if *pcapPath != "" {
		exitOn(pcapErr)
		fmt.Printf("wrote capture to %s\n", *pcapPath)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// demoForward is the identity App of the supervision demo: frames are
// forwarded untouched, so anything that fails to come back out was lost
// by the engine — which, under supervision, must be (nearly) nothing.
type demoForward struct{}

func (demoForward) Name() string { return "supervise-demo" }
func (demoForward) Handle(ctx *core.Context, pkt *fh.Packet) error {
	ctx.Forward(pkt)
	return nil
}

// superviseDemo is the standalone engine-supervision harness behind
// -panic-every / -stall-after: a 2-core parallel engine forwards a
// synthetic U-plane load while the App misbehaves on the configured
// schedule, and the run reports what the supervision machinery did about
// it — recovered panics, quarantined frames, breaker transitions, shard
// restarts, ingress sheds. With -metrics the Prometheus endpoint stays
// up for the run, exporting ranbooster_app_panics_total,
// ranbooster_breaker_state, ranbooster_shard_restarts_total and
// ranbooster_shed_total alongside the usual engine series.
func superviseDemo(panicEvery int, stallAfter, dur time.Duration, metrics string) {
	s := sim.NewScheduler()
	var app core.App = demoForward{}
	const cadence = 10 * time.Microsecond
	frames := int(dur / cadence)
	if frames < 1024 {
		frames = 1024
	}
	// The panic injector wraps the stall: the wedged call resumes in a
	// retired worker, so nothing counted may happen after the wedge.
	var stall *fault.Stall
	if stallAfter > 0 {
		app, stall = fault.StallFor(app, uint64(frames/2))
	}
	var pstats *fault.PanicStats
	if panicEvery > 0 {
		app, pstats = fault.PanicEvery(app, panicEvery, 42)
	}
	pol := core.SupervisePolicy{StallAfter: stallAfter}
	if panicEvery > 0 {
		pol.PanicBudget = 3
	}
	eng, err := core.NewEngine(s, core.Config{
		Name: "supervise-demo", Mode: core.ModeDPDK, Cores: 2, App: app,
		CarrierPRBs: 106, RingSize: 512, Supervise: pol,
	})
	exitOn(err)
	var tx atomic.Uint64
	eng.SetOutput(func([]byte) { tx.Add(1) })
	rec := telemetry.NewRecorder()
	rec.Attach(eng.Bus(), core.KPIBreaker)

	if metrics != "" {
		ln, err := net.Listen("tcp", metrics)
		exitOn(err)
		defer ln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			eng.WriteMetrics(telemetry.NewPromWriter(w))
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("serving /metrics on %v\n", ln.Addr())
	}

	// poll is the virtual time each supervision step advances, for the
	// breaker cooldown; -stall-after is wall time.
	const poll = 100 * time.Microsecond
	exitOn(eng.Start())
	fmt.Printf("supervision demo: %d frames on 2 cores", frames)
	if panicEvery > 0 {
		fmt.Printf("; app panics every %dth call (budget %d)", panicEvery, pol.PanicBudget)
	}
	if stallAfter > 0 {
		fmt.Printf("; app wedges at call %d (watchdog %v wall)", frames/2, stallAfter)
	}
	fmt.Println()

	builders := [2]*fh.Builder{
		fh.NewBuilder(eth.MAC{2, 0, 0, 0, 0, 1}, eth.MAC{2, 0, 0, 0, 0, 2}, -1),
		fh.NewBuilder(eth.MAC{2, 0, 0, 0, 0, 1}, eth.MAC{2, 0, 0, 0, 0, 2}, -1),
	}
	var tWedge, tRestart time.Time
	step := func() {
		// Let the workers run between virtual-time polls (single-CPU
		// hosts otherwise starve them against this driver loop).
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		s.RunFor(poll)
		eng.Supervise()
		if stall != nil {
			if tWedge.IsZero() && stall.Stalled() {
				tWedge = time.Now()
			}
			if tRestart.IsZero() && eng.Snapshot().ShardRestarts > 0 {
				tRestart = time.Now()
			}
		}
	}
	for i := 0; i < frames; i++ {
		port := uint8(i % 2)
		f := demoFrame(builders[port], port, int16(i))
		for !eng.TryIngress(f) {
			step()
		}
		if i%16 == 0 {
			step()
		}
	}
	// Drain. The wedged shard's ring empties only once the watchdog has
	// restarted it, a wall-clock deadline away, so each of the bounded
	// polls also sleeps a hundredth of that deadline (0 without -stall-after).
	for i := 0; i < 4000 && eng.Snapshot().RxFrames < uint64(frames); i++ {
		time.Sleep(stallAfter / 100)
		step()
	}
	if stall != nil {
		// Held until the run ends, long after the supervisor restarted the
		// shard around it; released so Stop can join even if it did not.
		stall.Release()
	}
	eng.Stop()

	st := eng.Snapshot()
	fmt.Printf("forwarded %d of %d frames (rx %d, shed %d data + %d PRACH, ring drops %d)\n",
		tx.Load(), frames, st.RxFrames, st.ShedUPlane, st.ShedPRACH, st.RingDrops)
	if pstats != nil {
		fmt.Printf("panic isolation: %d injected panics, %d recovered, %d frames quarantined to passthrough; breaker %v after %d transitions\n",
			pstats.Panics(), st.AppPanics, st.Quarantined, st.Breaker, len(rec.Series(core.KPIBreaker)))
	}
	if stall != nil {
		if !tRestart.IsZero() {
			fmt.Printf("watchdog: shard restarted %v after the wedge was observed (wall clock, deadline %v); restarts %d\n",
				tRestart.Sub(tWedge).Round(time.Microsecond), stallAfter, st.ShardRestarts)
		} else {
			fmt.Printf("watchdog: no restart observed (restarts %d)\n", st.ShardRestarts)
		}
	}
	fmt.Printf("engine health: %v\n", st.Health)
}

// metroDemo is the standalone metro-scale harness behind -floors /
// -cells / -chain: a building of floors x cells (4 eAxC streams per
// cell) injecting Poisson uplink traffic into a chain of middlebox
// engines on a multi-hop fabric, admitted through the work-stealing
// pool. The run covers -duration of virtual slot time, then prints the
// per-hop frame-conservation ledger and the end-of-chain sink's
// per-stream sequence audit. With -metrics every engine in the chain
// (and every fabric switch) exports on one Prometheus endpoint,
// distinguished by their ranbooster_* name labels.
func metroDemo(floors, cellsPerFloor, chain int, dur time.Duration, metrics string, trace, xdp bool) {
	cfg := testbed.MetroConfig{
		Floors:        floors,
		CellsPerFloor: cellsPerFloor,
		ChainDepth:    chain,
		Cores:         4,
		Scale:         core.ScalePolicy{WorkSteal: true},
		Trace:         trace,
		Kernel:        xdp,
		Seed:          42,
	}
	m, err := testbed.NewMetro(cfg)
	exitOn(err)
	cfg = m.Config()
	slots := int(dur / phy.SlotDuration)
	if slots < 1 {
		slots = 1
	}
	fmt.Printf("metro scenario: %d floors x %d cells (%d eAxC streams), chain depth %d, %d cores/engine, work-stealing admission\n",
		cfg.Floors, cfg.CellsPerFloor, cfg.Streams(), cfg.ChainDepth, cfg.Cores)

	if metrics != "" {
		ln, err := net.Listen("tcp", metrics)
		exitOn(err)
		defer ln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			p := telemetry.NewPromWriter(w)
			for _, e := range m.Engines {
				e.WriteMetrics(p)
			}
			for _, sw := range m.Topo.Switches() {
				sw.WriteMetrics(p)
			}
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("serving /metrics on %v (%d engines, %d switches)\n",
			ln.Addr(), len(m.Engines), len(m.Topo.Switches()))
	}

	start := time.Now()
	m.RunSlots(slots)
	m.Flush()
	wall := time.Since(start)

	rep := m.Conservation(0)
	fmt.Printf("%d slots (%v virtual) in %v wall: %d frames injected\n",
		slots, time.Duration(slots)*phy.SlotDuration, wall.Round(time.Millisecond), rep.Injected)
	var steals uint64
	var tr telemetry.TraceStats
	for i, e := range m.Engines {
		st := e.Snapshot()
		steals += st.Steals
		if st.Trace != nil {
			tr = tr.Merge(*st.Trace)
		}
		h := rep.Hops[i]
		fmt.Printf("  hop %d (%s): arrived %d, forwarded %d, lost %d, steals %d\n",
			i, e.Name(), h.Arrived, h.Forwarded, h.Lost, st.Steals)
	}
	sink := rep.Sink
	fmt.Printf("sink: delivered %d on %d streams; seq gaps %d, duplicates %d, reordered %d\n",
		sink.Delivered, sink.Streams, sink.Gaps, sink.Duplicates, sink.Reordered)
	if err := rep.Check(); err != nil {
		fmt.Printf("frame conservation: VIOLATED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("frame conservation: every frame accounted for at every hop")
	if trace {
		if p50, ok := tr.Stage[telemetry.StageTotal].Quantile(0.50); ok {
			p99, _ := tr.Stage[telemetry.StageTotal].Quantile(0.99)
			fmt.Printf("per-frame sojourn across the chain: p50 %v, p99 %v\n", p50, p99)
		}
	}
}

// demoFrame builds one downlink U-plane frame for the supervision demo.
func demoFrame(b *fh.Builder, port uint8, fill int16) []byte {
	g := iq.NewGrid(4)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: fill, Q: -fill}
		}
	}
	p := bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint}
	payload, err := bfp.CompressGrid(nil, g, p)
	exitOn(err)
	return b.UPlane(ecpri.PcID{RUPort: port}, &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Downlink, FrameID: uint8(fill), SymbolID: uint8(fill) % 14},
		Sections: []oran.USection{{NumPRB: 4, Comp: p, Payload: payload}},
	})
}
