package fault

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// nopApp ignores its arguments; a pure invocation counter target.
type nopApp struct{}

func (nopApp) Name() string                           { return "nop" }
func (nopApp) Handle(*core.Context, *fh.Packet) error { return nil }

// nopBurst is a burst-aware nopApp.
type nopBurst struct{ nopApp }

func (nopBurst) HandleBurst(*core.Context, []*fh.Packet) error { return nil }

// fwdApp forwards every packet unchanged — the identity middlebox, so a
// chaos run's expected output is exactly its input.
type fwdApp struct{}

func (fwdApp) Name() string { return "fwd" }
func (fwdApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	ctx.Forward(pkt)
	return nil
}

// firedIndices runs 1-based calls 1..total through a PanicEvery(nop)
// wrapper and returns the indices that panicked.
func firedIndices(t *testing.T, every int, seed uint64, total int) []int {
	t.Helper()
	app, stats := PanicEvery(nopApp{}, every, seed)
	var fired []int
	for i := 1; i <= total; i++ {
		func() {
			defer func() {
				if recover() != nil {
					fired = append(fired, i)
				}
			}()
			_ = app.Handle(nil, nil)
		}()
	}
	if stats.Calls() != uint64(total) {
		t.Fatalf("Calls = %d, want %d", stats.Calls(), total)
	}
	if int(stats.Panics()) != len(fired) {
		t.Fatalf("Panics = %d, fired %d", stats.Panics(), len(fired))
	}
	return fired
}

func TestPanicEveryDeterministic(t *testing.T) {
	const every, total = 50, 300
	for _, seed := range []uint64{0, 7, 12345} {
		a := firedIndices(t, every, seed, total)
		b := firedIndices(t, every, seed, total)
		if len(a) != total/every {
			t.Fatalf("seed %d: %d panics in %d calls, want %d", seed, len(a), total, total/every)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d not replayable: %v vs %v", seed, a, b)
			}
			if phase := seed % every; uint64(a[i])%every != phase {
				t.Fatalf("seed %d: call %d fired off-phase (want n %% %d == %d)", seed, a[i], every, phase)
			}
		}
	}
	// Distinct seeds shift the phase.
	if a, b := firedIndices(t, every, 1, total), firedIndices(t, every, 2, total); a[0] == b[0] {
		t.Fatalf("seeds 1 and 2 fire on the same calls (%v)", a[:1])
	}
}

func TestPanicEveryPreservesBurstContract(t *testing.T) {
	plain, _ := PanicEvery(nopApp{}, 10, 0)
	if _, ok := plain.(core.BurstApp); ok {
		t.Fatal("wrapping a plain App produced a BurstApp")
	}
	wrapped, stats := PanicEvery(nopBurst{}, 2, 0)
	burst, ok := wrapped.(core.BurstApp)
	if !ok {
		t.Fatal("wrapping a BurstApp lost the burst contract")
	}
	// Bursts count as one invocation each; the trip happens before
	// delegation.
	if err := burst.HandleBurst(nil, nil); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second burst did not trip")
			}
		}()
		_ = burst.HandleBurst(nil, nil)
	}()
	if stats.Calls() != 2 || stats.Panics() != 1 {
		t.Fatalf("stats = %d calls / %d panics, want 2/1", stats.Calls(), stats.Panics())
	}
}

func TestStallForWedgesExactlyOnce(t *testing.T) {
	app, ctl := StallFor(nopApp{}, 3)
	if _, ok := app.(core.BurstApp); ok {
		t.Fatal("wrapping a plain App produced a BurstApp")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			_ = app.Handle(nil, nil)
		}
	}()
	deadline := time.After(5 * time.Second)
	for !ctl.Stalled() {
		select {
		case <-deadline:
			t.Fatal("call 3 never stalled")
		default:
			runtime.Gosched()
		}
	}
	if ctl.Calls() != 3 {
		t.Fatalf("Calls = %d at stall, want 3", ctl.Calls())
	}
	ctl.Release()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("Release did not unblock the stalled call")
	}
	if ctl.Stalled() {
		t.Fatal("Stalled still true after release")
	}
	ctl.Release() // idempotent
	if ctl.Calls() != 5 {
		t.Fatalf("Calls = %d, want 5 (no further stalls)", ctl.Calls())
	}
}

func TestStallArmReleasesOnVirtualTime(t *testing.T) {
	s := sim.NewScheduler()
	app, ctl := StallFor(nopApp{}, 1)
	stop := ctl.Arm(s, 10*time.Millisecond, time.Millisecond)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = app.Handle(nil, nil)
	}()
	deadline := time.After(5 * time.Second)
	for !ctl.Stalled() {
		select {
		case <-deadline:
			t.Fatal("call never stalled")
		default:
			runtime.Gosched()
		}
	}
	// One poll observes the stall, then d more virtual time releases it.
	s.RunFor(12 * time.Millisecond)
	select {
	case <-done:
	case <-deadline:
		t.Fatal("armed release never fired")
	}
}

// chaosFrame builds a downlink U-plane frame whose payload encodes seq,
// so every frame of a stream is byte-unique and order is observable.
func chaosFrame(t *testing.T, b *fh.Builder, port uint8, seq int) []byte {
	t.Helper()
	g := iq.NewGrid(4)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: int16(seq % 2048), Q: -int16(seq % 1024)}
		}
	}
	p := bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint}
	payload, err := bfp.CompressGrid(nil, g, p)
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing: oran.Timing{Direction: oran.Downlink,
			FrameID: uint8(seq / 160 % 256), SubframeID: uint8(seq / 16 % 10), SlotID: uint8(seq % 16 % 2),
			SymbolID: uint8(seq % 14)},
		Sections: []oran.USection{{NumPRB: 4, Comp: p, Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

// TestChaosSupervisionAcceptance is the seeded end-to-end chaos run of
// DESIGN.md §6.7: a parallel 2-core engine whose App panics on a fixed
// schedule AND wedges once, under full supervision. The run must finish
// with zero crashes, the non-stalled stream byte-identical to a clean
// run (the App is the identity forwarder, so the clean run's output is
// the input), the breaker observed cycling Open → Half-Open → Closed,
// and the stall detected within the watchdog deadline plus the polls'
// own granularity. The breaker cooldown elapses on virtual time, advanced
// poll by poll; the watchdog deadline is wall time, set far above any
// preemption of a healthy worker, so exactly one restart is the only
// correct count.
func TestChaosSupervisionAcceptance(t *testing.T) {
	const (
		seed       = 42
		streams    = 2
		perFlow    = 1500
		panicEvery = 250
		stallCall  = 1101
		stallAfter = 50 * time.Millisecond  // wall clock
		poll       = 500 * time.Microsecond // virtual time per supervision step
	)
	// The panic injector wraps the stall, not the reverse: the wedged call
	// resumes in a retired worker whose outcome the engine rightly discards,
	// so nothing the test counts may happen after the wedge.
	inner, stall := StallFor(fwdApp{}, stallCall)
	app, pstats := PanicEvery(inner, panicEvery, seed)

	s := sim.NewScheduler()
	e, err := core.NewEngine(s, core.Config{
		Name: "chaos", Mode: core.ModeDPDK, Cores: streams, App: app,
		CarrierPRBs: 106, RingSize: 1024,
		Supervise: core.SupervisePolicy{
			PanicBudget:     2,
			BreakerCooldown: 2 * time.Millisecond,
			StallAfter:      stallAfter,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var outMu sync.Mutex
	outs := make([][][]byte, streams)
	e.SetOutput(func(f []byte) {
		cp := append([]byte(nil), f...)
		var p fh.Packet
		if p.Decode(cp) != nil {
			return
		}
		port := p.EAxC().RUPort
		outMu.Lock()
		outs[port] = append(outs[port], cp)
		outMu.Unlock()
	})
	rec := telemetry.NewRecorder()
	rec.Attach(e.Bus(), core.KPIBreaker)

	// Pre-build the whole offered load, interleaved across streams.
	builders := make([]*fh.Builder, streams)
	for p := range builders {
		builders[p] = fh.NewBuilder(
			eth.MAC{0x02, 0, 0, 0, 0, 0x01}, eth.MAC{0x02, 0, 0, 0, 0, 0x02}, 6)
	}
	inputs := make([][][]byte, streams)
	var frames [][]byte
	for seq := 0; seq < perFlow; seq++ {
		for p := 0; p < streams; p++ {
			f := chaosFrame(t, builders[p], uint8(p), seq)
			inputs[p] = append(inputs[p], f)
			frames = append(frames, f)
		}
	}

	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var tStall, tRestart time.Time // wall clock, the one the watchdog judges on
	step := func() {
		// Yield the P before advancing time: on a single-CPU box the
		// workers are otherwise starved for whole stretches of virtual
		// time, which is not the regime supervision is meant to model.
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		s.RunFor(poll)
		e.Supervise()
		if tStall.IsZero() && stall.Stalled() {
			tStall = time.Now()
		}
		if tRestart.IsZero() && e.Snapshot().ShardRestarts > 0 {
			tRestart = time.Now()
		}
	}
	for i, f := range frames {
		for !e.TryIngress(f) {
			step()
			runtime.Gosched()
		}
		if i%32 == 0 {
			step()
		}
	}
	// Poll until the restart has happened and the fresh worker has drained
	// the ring; the wall-clock cap only ends a run that has already failed.
	for giveUp := time.Now().Add(100 * stallAfter); time.Now().Before(giveUp); step() {
		if st := e.Snapshot(); st.ShardRestarts > 0 && st.RxFrames == uint64(len(frames)) {
			break
		}
	}
	// The wedge is held until here, long after the shard was restarted
	// around it; releasing it lets Stop join even if no restart happened.
	stall.Release()
	e.Stop()

	st := e.Snapshot()
	if st.ShardRestarts != 1 {
		t.Fatalf("ShardRestarts = %d, want 1", st.ShardRestarts)
	}
	if tStall.IsZero() || tRestart.IsZero() {
		t.Fatal("stall or restart never observed")
	}
	// Detection latency: the watchdog needs one poll to baseline the
	// wedged invocation and StallAfter to declare it stuck; the polls are
	// microseconds apart, the rest is slack for a descheduled driver.
	if lat := tRestart.Sub(tStall); lat > 2*stallAfter {
		t.Fatalf("restart latency %v, want <= 2 x StallAfter (%v)", lat, 2*stallAfter)
	}
	if pstats.Panics() == 0 || st.AppPanics != pstats.Panics() {
		t.Fatalf("panics: injector %d, engine %d — isolation lost panics", pstats.Panics(), st.AppPanics)
	}
	if st.Quarantined < st.AppPanics {
		t.Fatalf("Quarantined = %d < AppPanics = %d", st.Quarantined, st.AppPanics)
	}
	if st.RingDrops != 0 || st.ShedUPlane != 0 || st.ShedPRACH != 0 {
		t.Fatalf("frames lost outside the stall: %+v", st)
	}

	// The breaker cycled through Open → Half-Open → Closed (as a
	// subsequence of the KPI series: panics keep arriving, so the
	// machine may cycle several times).
	var wantSeq = []core.BreakerState{core.BreakerOpen, core.BreakerHalfOpen, core.BreakerClosed}
	i := 0
	for _, smp := range rec.Series(core.KPIBreaker) {
		if i < len(wantSeq) && core.BreakerState(smp.Value) == wantSeq[i] {
			i++
		}
	}
	if i != len(wantSeq) {
		t.Fatalf("breaker never completed Open → Half-Open → Closed (series %v)", rec.Series(core.KPIBreaker))
	}

	// Stream integrity versus the clean run. With the identity forwarder
	// every clean-run output equals its input, so: each emitted stream
	// must be an in-order subsequence of its input, at most one stream
	// (the stalled shard's) may be missing frames, and its loss must be
	// one contiguous run — the burst abandoned with the wedged worker.
	outMu.Lock()
	defer outMu.Unlock()
	stalledStreams := 0
	for p := 0; p < streams; p++ {
		skipped := make([]int, 0, 8)
		j := 0
		for _, f := range outs[p] {
			match := j
			for match < len(inputs[p]) && !bytes.Equal(inputs[p][match], f) {
				match++
			}
			if match == len(inputs[p]) {
				t.Fatalf("stream %d emitted a frame not in its input (reordered or corrupted)", p)
			}
			for k := j; k < match; k++ {
				skipped = append(skipped, k)
			}
			j = match + 1
		}
		for k := j; k < len(inputs[p]); k++ {
			skipped = append(skipped, k)
		}
		if len(skipped) == 0 {
			continue
		}
		stalledStreams++
		for i := 1; i < len(skipped); i++ {
			if skipped[i] != skipped[i-1]+1 {
				t.Fatalf("stream %d lost non-contiguous frames %v", p, skipped)
			}
		}
		// The only legal loss is the burst abandoned with the wedged
		// worker: at most one drain's worth of frames.
		if len(skipped) > core.DefaultBatch {
			t.Fatalf("stream %d lost %d frames, more than one burst", p, len(skipped))
		}
	}
	if stalledStreams != 1 {
		t.Fatalf("%d streams lost frames, want exactly the stalled shard's", stalledStreams)
	}
}
