package experiments

import (
	"fmt"
	"runtime"
	"time"

	"ranbooster/internal/air"
	"ranbooster/internal/apps/resilience"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fault"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/radio"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
	"ranbooster/internal/testbed"
)

func init() {
	register("chaos", Chaos)
}

// Chaos drives the middleboxes through scripted fault scenarios on the
// fault-injection fabric (internal/fault) and reports how each degrades
// and recovers: DU silence → resilience failover latency, 1–10% fronthaul
// loss → PRB-monitor accuracy, and a reorder burst on the shared-RU
// uplink → PRACH occasion delivery. Every scenario runs from a fixed seed
// and replays bit-identically.
func Chaos() *Table {
	t := &Table{
		ID:      "chaos",
		Title:   "Fault injection: graceful degradation and recovery",
		Columns: []string{"scenario", "fault script", "recovery / accuracy", "detail"},
	}
	chaosFailover(t)
	chaosLossAccuracy(t)
	chaosReorderPRACH(t)
	chaosPanicIsolation(t)
	chaosStallDetection(t)
	chaosShed(t)
	return t
}

// chaosFailover: the fabric silences the active DU's link (the DU itself
// keeps running — the fault is in the transport); the resilience
// middlebox must fail over to the standby within FailoverAfter plus one
// uplink inter-arrival. The RU's uplink is solicited by the DU's C-plane,
// so a dead DU silences the RU too; the deployment therefore aims a
// heartbeat probe at the middlebox at the TDD uplink cadence (DDDSU
// spaces uplink slots one TDD period = 2.5 ms apart), which bounds how
// long the detector can go without a chance to check liveness.
func chaosFailover(t *Table) {
	for _, failAfter := range []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond} {
		tb := testbed.New(400)
		mbMAC := tb.NewMAC()
		cellA := testbed.CellConfig("chaos-a", 1, testbed.Carrier100(), phy.StackSRSRAN, 4)
		cellB := testbed.CellConfig("chaos-b", 2, testbed.Carrier100(), phy.StackSRSRAN, 4)
		_, ruMAC := tb.AddRU("chaos-ru", testbed.RUPosition(0, 0), testbed.RUOpts{Carrier: cellA.Carrier, Ports: 4, Peer: mbMAC})
		_, macA := tb.AddDU("chaos-duA", testbed.DUOpts{Cell: cellA, Peer: mbMAC})
		_, macB := tb.AddDU("chaos-duB", testbed.DUOpts{Cell: cellB, Peer: mbMAC})

		app := resilience.New(resilience.Config{
			Name: "chaos-res", MAC: mbMAC, DUs: []eth.MAC{macA, macB}, RU: ruMAC,
			FailoverAfter: failAfter,
		})
		eng, err := core.NewEngine(tb.Sched, core.Config{
			Name: app.Name(), Mode: core.ModeDPDK, App: app, CarrierPRBs: cellA.Carrier.NumPRB,
		})
		if err != nil {
			panic(err)
		}
		tb.AddEngine(eng, mbMAC)
		rec := telemetry.NewRecorder()
		rec.Attach(eng.Bus(), resilience.KPIFailover)

		inj := fault.NewInjector(tb.Sched, tb.RNG.Fork(), fault.Profile{})
		inj.Attach(tb.Switch.PortByName("chaos-duA"))

		// Heartbeat probe: a plain C-plane frame from an unknown MAC at the
		// uplink inter-arrival; the middlebox drops it, but each arrival
		// ticks the liveness detector even when the fronthaul goes quiet.
		probe := tb.Switch.AddPort("chaos-probe", nil)
		pb := fh.NewBuilder(tb.NewMAC(), mbMAC, -1)
		stopProbe := tb.Sched.Ticker(phy.SlotDuration*5, func() {
			probe.Send(pb.CPlane(ecpri.PcID{}, &oran.CPlaneMsg{
				Timing:      oran.Timing{Direction: oran.Downlink, FrameID: 1},
				SectionType: oran.SectionType1,
				Comp:        testbed.BFP9(),
				Sections:    []oran.CSection{{NumPRB: 1, ReMask: 0xfff, NumSymbol: 1}},
			}))
		})

		ue := tb.AddUE(0, testbed.RUXPositions[0]+4, radio.FloorWidth/2)
		ue.OfferedDLbps = 300e6
		tb.Settle()
		tb.Run(200 * time.Millisecond) // loaded downlink arms the detector

		// Scripted fault: the link goes dark and stays dark.
		tFault := tb.Sched.Now()
		inj.SetDown(true)
		tb.Run(100 * time.Millisecond)
		stopProbe()

		bound := failAfter + phy.SlotDuration*5 // + one DDDSU uplink inter-arrival
		script := fmt.Sprintf("DU link down @ %v", time.Duration(tFault))
		if ev, ok := rec.Last(resilience.KPIFailover); ok {
			lat := ev.At.Sub(tFault)
			t.AddRow(
				fmt.Sprintf("DU-silence failover (threshold %v)", failAfter),
				script,
				fmt.Sprintf("failover in %v", lat),
				fmt.Sprintf("bound %v; silenced frames %d", bound, inj.Stats().LinkDowns))
		} else {
			t.AddRow(fmt.Sprintf("DU-silence failover (threshold %v)", failAfter), script,
				"NO FAILOVER", "detector never tripped")
		}
	}
}

// chaosLossAccuracy: i.i.d. loss on the monitored downlink; Algorithm 1's
// PRB estimate is compared against the DU's MAC-log ground truth, and the
// engine's gap detection accounts for every missing frame.
func chaosLossAccuracy(t *Table) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		tb := testbed.New(401)
		cell := testbed.CellConfig("mon", 1, testbed.Carrier100(), phy.StackSRSRAN, 4)
		dep, err := tb.MonitoredCell("mon", cell, testbed.RUPosition(0, 0), testbed.MonitorOpts{Mode: core.ModeDPDK})
		if err != nil {
			panic(err)
		}
		rec := telemetry.NewRecorder()
		rec.Attach(dep.Engine.Bus(), "")
		u := tb.AddUE(0, testbed.RUXPositions[0]+4, radio.FloorWidth/2)
		u.OfferedDLbps = 400e6
		u.OfferedULbps = 40e6
		tb.Settle()

		// Fault on only after settling: attachment happens on a clean
		// fabric, then the measured window sees the loss.
		inj := fault.NewInjector(tb.Sched, tb.RNG.Fork(), fault.Profile{Drop: loss})
		inj.Attach(tb.Switch.PortByName("mon-du"))

		before := dep.DU.Stats()
		tb.Measure(400 * time.Millisecond)
		after := dep.DU.Stats()
		truthDL := ratio(after.DLPRBSymSched-before.DLPRBSymSched, after.DLPRBSymTotal-before.DLPRBSymTotal)
		estDL := lastSample(rec, "prb.utilization.dl")
		st := dep.Engine.Snapshot()
		t.AddRow(
			fmt.Sprintf("PRB monitor @ %.0f%% DL loss", loss*100),
			fmt.Sprintf("i.i.d. drop %.2f on DU link", loss),
			fmt.Sprintf("DL truth %s, estimate %s", pctCell(truthDL), pctCell(estDL)),
			fmt.Sprintf("seq gaps %d, dropped %d, health %v", st.SeqGaps, inj.Stats().Dropped, st.Health))
	}
}

// chaosReorderPRACH: a reorder burst on the shared RU's uplink while two
// tenants' UEs attach — PRACH occasions must still reach the right DU
// (Algorithm 3's demux is keyed by section id, not arrival order).
func chaosReorderPRACH(t *Table) {
	tb := testbed.New(402)
	ruCarrier := testbed.Carrier100()
	duPRBs := phy.PRBsFor(40)
	cells := []air.CellConfig{
		testbed.CellConfig("mnoA", 11, phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ruCarrier, 0, duPRBs), NumPRB: duPRBs}, phy.StackSRSRAN, 4),
		testbed.CellConfig("mnoB", 12, phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ruCarrier, ruCarrier.NumPRB-duPRBs, duPRBs), NumPRB: duPRBs}, phy.StackSRSRAN, 4),
	}
	dep, err := tb.SharedRU("chaos", ruCarrier, testbed.RUPosition(0, 0), cells, core.ModeDPDK)
	if err != nil {
		panic(err)
	}
	// Reorder burst on the RU's uplink from the start: attachment itself
	// (PRACH → response) must survive the burst.
	inj := fault.NewInjector(tb.Sched, tb.RNG.Fork(), fault.Profile{
		Reorder: 0.3, ReorderDelay: 100 * time.Microsecond,
	})
	inj.Attach(tb.Switch.PortByName("chaos-ru"))

	ua := tb.AddUE(0, testbed.RUXPositions[0]+4, radio.FloorWidth/2)
	ua.AllowedCell = "mnoA"
	ub := tb.AddUE(0, testbed.RUXPositions[0]-4, radio.FloorWidth/2)
	ub.AllowedCell = "mnoB"
	tb.Settle()
	tb.Run(200 * time.Millisecond)

	attached := 0
	for _, u := range []*air.UE{ua, ub} {
		if u.Attached() {
			attached++
		}
	}
	var prach uint64
	for _, d := range dep.DUs {
		prach += d.Stats().PRACHDetected
	}
	st := dep.Engine.Snapshot()
	t.AddRow(
		"RU-sharing PRACH under reorder burst",
		"30% uplink reorder, +100µs",
		fmt.Sprintf("%d/2 UEs attached, %d PRACH detected", attached, prach),
		fmt.Sprintf("prach muxed %d, reordered frames %d (engine saw %d late)",
			dep.App.PRACHMuxed.Load(), inj.Stats().Reordered, st.Reordered))
	t.Note("all scenarios replay bit-identically from the fixed seeds (400..402)")
}

// supForward is the identity App for the supervision scenarios: every
// frame is forwarded untouched, so any frame that fails to reach the
// output was lost by the engine, not the workload.
type supForward struct{}

func (supForward) Name() string { return "sup-fwd" }
func (supForward) Handle(ctx *core.Context, pkt *fh.Packet) error {
	ctx.Forward(pkt)
	return nil
}

// supUplane builds one downlink U-plane frame with a payload derived
// from fill.
func supUplane(b *fh.Builder, fill int16) []byte {
	g := iq.NewGrid(4)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: fill, Q: -fill}
		}
	}
	payload, err := bfp.CompressGrid(nil, g, testbed.BFP9())
	if err != nil {
		panic(err)
	}
	return b.UPlane(ecpri.PcID{}, &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Downlink, FrameID: uint8(fill), SymbolID: uint8(fill) % 14},
		Sections: []oran.USection{{NumPRB: 4, Comp: testbed.BFP9(), Payload: payload}},
	})
}

// supPRACH builds one uplink PRACH-occasion frame (FilterIndex 1).
func supPRACH(b *fh.Builder, fill int16) []byte {
	g := iq.NewGrid(4)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: fill, Q: fill}
		}
	}
	payload, err := bfp.CompressGrid(nil, g, testbed.BFP9())
	if err != nil {
		panic(err)
	}
	return b.UPlane(ecpri.PcID{}, &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Uplink, FilterIndex: 1, FrameID: uint8(fill)},
		Sections: []oran.USection{{NumPRB: 4, Comp: testbed.BFP9(), Payload: payload}},
	})
}

// supCPlane builds one downlink C-plane frame.
func supCPlane(b *fh.Builder, fill int16) []byte {
	return b.CPlane(ecpri.PcID{}, &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: oran.Downlink, FrameID: uint8(fill)},
		SectionType: oran.SectionType1,
		Comp:        testbed.BFP9(),
		Sections:    []oran.CSection{{NumPRB: 106, ReMask: 0xfff, NumSymbol: 14}},
	})
}

// chaosPanicIsolation: the App panics on a deterministic schedule while
// the engine runs with panic isolation on. The claim under test is
// fail-to-wire: no matter the panic rate, every offered frame reaches the
// output — forwarded by the App or quarantined to raw passthrough — and
// the circuit breaker cycles instead of the process crashing.
func chaosPanicIsolation(t *Table) {
	for _, every := range []int{100, 1000} {
		const offered = 5000
		s := sim.NewScheduler()
		app, stats := fault.PanicEvery(supForward{}, every, 7)
		eng, err := core.NewEngine(s, core.Config{
			Name: "sup-panic", Mode: core.ModeDPDK, App: app, CarrierPRBs: 106,
			Supervise: core.SupervisePolicy{PanicBudget: 3},
		})
		if err != nil {
			panic(err)
		}
		tx := 0
		eng.SetOutput(func([]byte) { tx++ })
		b := fh.NewBuilder(eth.MAC{2, 0, 0, 0, 0, 1}, eth.MAC{2, 0, 0, 0, 0, 2}, -1)
		for i := 0; i < offered; i++ {
			eng.Ingress(supUplane(b, int16(i)))
			// Advance virtual time at the frame cadence so the breaker
			// cooldown can elapse on the datapath clock.
			s.RunFor(10 * time.Microsecond)
		}
		s.Run()
		st := eng.Snapshot()
		t.AddRow(
			fmt.Sprintf("panic isolation @ 1 panic / %d calls", every),
			fmt.Sprintf("app panics every %dth call, budget 3", every),
			fmt.Sprintf("%d of %d frames lost", offered-tx, offered),
			fmt.Sprintf("panics %d, quarantined %d, breaker %v at end", st.AppPanics, st.Quarantined, st.Breaker))
		_ = stats
	}
}

// chaosStallDetection: the App wedges forever on one call; the shard
// watchdog must declare the stall and restart the shard within StallAfter
// plus the poll granularity. Detection latency is measured from the first
// supervision poll that observes the wedge to the poll that restarts, on
// wall time like StallAfter itself, so the row reports only whether it
// stayed under 2 x StallAfter — the one thing that repeats run to run.
func chaosStallDetection(t *Table) {
	for _, stallAfter := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		s := sim.NewScheduler()
		app, stall := fault.StallFor(supForward{}, 40)
		eng, err := core.NewEngine(s, core.Config{
			Name: "sup-stall", Mode: core.ModeDPDK, Cores: 1, App: app,
			CarrierPRBs: 106, RingSize: 256,
			Supervise: core.SupervisePolicy{StallAfter: stallAfter},
		})
		if err != nil {
			panic(err)
		}
		if err := eng.Start(); err != nil {
			panic(err)
		}
		b := fh.NewBuilder(eth.MAC{2, 0, 0, 0, 0, 1}, eth.MAC{2, 0, 0, 0, 0, 2}, -1)
		var tWedge, tRestart sim.Time
		step := func() {
			// Yield so a single-P runtime schedules the worker between
			// polls.
			for i := 0; i < 8; i++ {
				runtime.Gosched()
			}
			eng.Supervise()
			if tWedge == 0 && stall.Stalled() {
				tWedge = sim.Monotonic()
			}
			if tRestart == 0 && eng.Snapshot().ShardRestarts > 0 {
				tRestart = sim.Monotonic()
			}
		}
		for i := 0; i < 200; i++ {
			f := supUplane(b, int16(i))
			for !eng.TryIngress(f) {
				step()
			}
			step()
		}
		for giveUp := sim.Monotonic().Add(100 * stallAfter); tRestart == 0 && sim.Monotonic() < giveUp; {
			step()
		}
		stall.Release()
		eng.Stop()
		name := fmt.Sprintf("stall watchdog (StallAfter %v wall)", stallAfter)
		if tRestart == 0 {
			t.AddRow(name, "app wedges on call 40", "NO RESTART", "watchdog never tripped")
			continue
		}
		verdict := "shard restarted within bound"
		if tRestart.Sub(tWedge) > 2*stallAfter {
			verdict = "shard restarted LATE"
		}
		t.AddRow(name, "app wedges on call 40", verdict,
			fmt.Sprintf("bound 2 x StallAfter = %v; restarts %d", 2*stallAfter, eng.Snapshot().ShardRestarts))
	}
}

// chaosShed: offered load against a wedged consumer. The worker is
// deterministically wedged on its first frame, then the ring absorbs the
// offered mix (6/8 U-plane data, 1/8 PRACH, 1/8 C-plane) with no consumer:
// admission should shed data inside the ring's last eighth, touch PRACH
// only inside the last sixteenth, and never shed C-plane.
func chaosShed(t *Table) {
	for _, offered := range []int{96, 192, 288} {
		const ring = 256
		s := sim.NewScheduler()
		app, stall := fault.StallFor(supForward{}, 1)
		eng, err := core.NewEngine(s, core.Config{
			Name: "sup-shed", Mode: core.ModeDPDK, Cores: 1, App: app,
			CarrierPRBs: 106, RingSize: ring,
		})
		if err != nil {
			panic(err)
		}
		if err := eng.Start(); err != nil {
			panic(err)
		}
		b := fh.NewBuilder(eth.MAC{2, 0, 0, 0, 0, 1}, eth.MAC{2, 0, 0, 0, 0, 2}, -1)
		// Wedge the worker on a sacrificial frame so ring occupancy
		// during the offered burst is deterministic.
		eng.Ingress(supUplane(b, -1))
		for i := 0; i < 1<<22 && !stall.Stalled(); i++ {
			runtime.Gosched()
		}
		for i := 0; i < offered; i++ {
			switch i % 8 {
			case 3:
				eng.Ingress(supPRACH(b, int16(i)))
			case 7:
				eng.Ingress(supCPlane(b, int16(i)))
			default:
				eng.Ingress(supUplane(b, int16(i)))
			}
		}
		st := eng.Snapshot()
		stall.Release()
		eng.Stop()
		t.AddRow(
			"overload shedding, reserve 1/8, PRACH at 1/16",
			fmt.Sprintf("%d frames at a dead consumer (ring %d)", offered, ring),
			fmt.Sprintf("shed %d data + %d PRACH, dropped %d", st.ShedUPlane, st.ShedPRACH, st.RingDrops),
			fmt.Sprintf("occupancy offered %.2f of ring; C-plane never shed", float64(offered)/ring))
	}
	t.Note("supervision scenarios (panic, stall, shed) are deterministic by construction: fixed injector schedules, virtual-time polls — except the watchdog deadline, which is wall time and reported only as met or missed")
}
