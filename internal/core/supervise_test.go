package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// prachFrame builds an uplink U-plane frame with timing filter index 1 —
// PRACH traffic, the U-plane class admission sheds last.
func prachFrame(t *testing.T, b *fh.Builder, port uint8) []byte {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(4), bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Uplink, FilterIndex: 1, FrameID: 1},
		Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

func TestSupervisePolicyValidation(t *testing.T) {
	s := sim.NewScheduler()
	base := Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106}

	cases := []struct {
		pol  SupervisePolicy
		want error
	}{
		{SupervisePolicy{PanicBudget: -1}, ErrBadPanicBudget},
		{SupervisePolicy{BreakerCooldown: -time.Millisecond}, ErrBadCooldown},
		{SupervisePolicy{StallAfter: -time.Millisecond}, ErrBadStallAfter},
	}
	for _, c := range cases {
		cfg := base
		cfg.Supervise = c.pol
		if _, err := NewEngine(s, cfg); !errors.Is(err, c.want) {
			t.Errorf("policy %+v: got %v, want %v", c.pol, err, c.want)
		}
	}

	// The zero value is valid and disables everything.
	e, err := NewEngine(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Supervise != (SupervisePolicy{}) {
		t.Fatalf("zero policy resolved to %+v", e.cfg.Supervise)
	}
	// PanicBudget defaults the cooldown.
	cfg := base
	cfg.Supervise = SupervisePolicy{PanicBudget: 3}
	e, err = NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Supervise.BreakerCooldown != DefaultBreakerCooldown {
		t.Fatalf("cooldown = %v, want default %v", e.cfg.Supervise.BreakerCooldown, DefaultBreakerCooldown)
	}
}

// TestPanicIsolationQuarantinesFrame: an App panic on one frame must not
// unwind the engine — the frame fails to the wire raw and the rest of
// the traffic processes normally.
func TestPanicIsolationQuarantinesFrame(t *testing.T) {
	calls := 0
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		calls++
		if calls == 2 {
			panic("app bug")
		}
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Supervise: SupervisePolicy{PanicBudget: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	e.SetOutput(fhtest.CopyTo(&out))
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := [][]byte{
		uplaneFrame(t, b, oran.Downlink, 0, 1, 10),
		uplaneFrame(t, b, oran.Downlink, 0, 2, 20),
		uplaneFrame(t, b, oran.Downlink, 0, 3, 30),
	}
	for _, f := range frames {
		e.Ingress(f)
	}
	s.Run()
	if len(out) != 3 {
		t.Fatalf("out = %d frames, want 3", len(out))
	}
	// The panicked frame reached the wire untouched, in order.
	if !bytes.Equal(out[1], frames[1]) {
		t.Fatal("quarantined frame is not byte-identical to its input")
	}
	st := e.Snapshot()
	if st.AppPanics != 1 || st.Quarantined != 1 {
		t.Fatalf("AppPanics=%d Quarantined=%d, want 1/1", st.AppPanics, st.Quarantined)
	}
	if st.Breaker != BreakerClosed {
		t.Fatalf("breaker = %v, want closed (budget 10, one panic)", st.Breaker)
	}
	if st.TxFrames != 3 || st.AppErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPanicWithoutIsolationPropagates: with the zero policy an App panic
// crashes the engine exactly as before supervision existed.
func TestPanicWithoutIsolationPropagates(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error { panic("app bug") })
	s, e, _ := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate with supervision off")
		}
	}()
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 10))
	s.Run()
}

// TestBreakerCycle drives the circuit breaker through its full state
// machine on the deterministic path: Closed → Open on budget exhaustion,
// quarantine-only while Open, Half-Open probe after the cooldown, Closed
// on probe success — all observable through the KPIBreaker samples.
func TestBreakerCycle(t *testing.T) {
	bad := true
	invocations := 0
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		invocations++
		if bad {
			panic("app bug")
		}
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Supervise: SupervisePolicy{PanicBudget: 2, BreakerCooldown: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	rec := telemetry.NewRecorder()
	rec.Attach(e.Bus(), KPIBreaker)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frame := func() []byte { return uplaneFrame(t, b, oran.Downlink, 0, 1, 10) }

	// Two panics exhaust the budget: the breaker opens.
	e.Ingress(frame())
	e.Ingress(frame())
	if st := e.Snapshot(); st.Breaker != BreakerOpen || st.AppPanics != 2 {
		t.Fatalf("after budget: breaker=%v panics=%d, want open/2", st.Breaker, st.AppPanics)
	}
	// Open: frames quarantine without touching the App.
	e.Ingress(frame())
	if invocations != 2 {
		t.Fatalf("open breaker still invoked the app (%d invocations)", invocations)
	}
	if st := e.Snapshot(); st.Quarantined != 3 {
		t.Fatalf("Quarantined = %d, want 3", st.Quarantined)
	}
	// Cooldown elapses; the next frame is the Half-Open probe. The App
	// has been fixed, so the probe closes the breaker.
	s.RunFor(2 * time.Millisecond)
	bad = false
	e.Ingress(frame())
	if invocations != 3 {
		t.Fatalf("probe never reached the app (%d invocations)", invocations)
	}
	if st := e.Snapshot(); st.Breaker != BreakerClosed {
		t.Fatalf("after probe: breaker = %v, want closed", st.Breaker)
	}
	s.Run()

	var states []BreakerState
	for _, smp := range rec.Series(KPIBreaker) {
		states = append(states, BreakerState(smp.Value))
	}
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(states) != len(want) {
		t.Fatalf("KPI transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("KPI transitions = %v, want %v", states, want)
		}
	}
}

// TestBreakerReopensOnFailedProbe: a panic on the Half-Open probe
// re-opens the breaker instead of closing it.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error { panic("still broken") })
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Supervise: SupervisePolicy{PanicBudget: 1, BreakerCooldown: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 10)) // opens
	s.RunFor(2 * time.Millisecond)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 10)) // probe panics
	if st := e.Snapshot(); st.Breaker != BreakerOpen || st.AppPanics != 2 {
		t.Fatalf("breaker=%v panics=%d, want re-opened/2", st.Breaker, st.AppPanics)
	}
}

// TestBurstPanicQuarantinesBurst: a HandleBurst panic poisons the whole
// burst — every parked frame fails to the wire raw, in order.
func TestBurstPanicQuarantinesBurst(t *testing.T) {
	app := &panickyBurst{}
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		RingSize: 64, Burst: BurstPolicy{Batch: 8}, Supervise: SupervisePolicy{PanicBudget: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	e.SetOutput(fhtest.CopyTo(&out))
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := make([][]byte, 4)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, uint8(i), int16(10*i+10))
	}
	drainDirect(t, e, frames)
	if len(out) != 4 {
		t.Fatalf("out = %d frames, want 4", len(out))
	}
	for i := range frames {
		if !bytes.Equal(out[i], frames[i]) {
			t.Fatalf("quarantined frame %d differs from its input", i)
		}
	}
	st := e.Snapshot()
	if st.AppPanics != 1 || st.Quarantined != 4 {
		t.Fatalf("AppPanics=%d Quarantined=%d, want 1/4", st.AppPanics, st.Quarantined)
	}
}

// panickyBurst is a BurstApp whose burst handler always panics.
type panickyBurst struct{}

func (p *panickyBurst) Name() string                             { return "panicky" }
func (p *panickyBurst) Handle(*Context, *fh.Packet) error        { panic("per-frame") }
func (p *panickyBurst) HandleBurst(*Context, []*fh.Packet) error { panic("burst bug") }

// wedgeKey is the A3 key wedgeApp caches its wedging packet under.
var wedgeKey = fh.Key{EAxC: 0xbeef}

// wedgeApp blocks Handle exactly once, on the first frame whose RU port
// matches, until release is closed. entered signals the block began. The
// wedging call caches its packet first and, once released, reports how
// many entries it still finds under the key (own, then closes resumed);
// every other call on the port raises others to the count it sees.
type wedgeApp struct {
	port    uint8
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	resumed chan struct{}
	own     int
	others  atomic.Int32
}

func newWedgeApp(port uint8) *wedgeApp {
	w := &wedgeApp{port: port, entered: make(chan struct{}), release: make(chan struct{}), resumed: make(chan struct{})}
	w.armed.Store(true)
	return w
}

func (a *wedgeApp) Name() string { return "wedge" }
func (a *wedgeApp) Handle(ctx *Context, pkt *fh.Packet) error {
	switch {
	case pkt.EAxC().RUPort != a.port:
	case a.armed.CompareAndSwap(true, false):
		ctx.Cache(wedgeKey, pkt)
		close(a.entered)
		<-a.release
		a.own = ctx.CachedCount(wedgeKey)
		close(a.resumed)
	default:
		if n := int32(ctx.CachedCount(wedgeKey)); n > a.others.Load() {
			a.others.Store(n)
		}
	}
	ctx.Forward(pkt)
	return nil
}

// superviseUntilRestart polls e.Supervise at a quarter of stallAfter on
// the wall clock — the clock the watchdog judges workers on — until a
// shard restart is reported. The 5 s cap only ends a run that has already
// failed; callers assert ShardRestarts themselves.
func superviseUntilRestart(e *Engine, stallAfter time.Duration) {
	for giveUp := time.Now().Add(5 * time.Second); e.Snapshot().ShardRestarts == 0 && time.Now().Before(giveUp); {
		time.Sleep(stallAfter / 4)
		e.Supervise()
	}
}

// TestWatchdogRestartsStalledShard wedges one shard's worker inside
// Handle and requires the supervisor to detect the stall, restart the
// shard hitlessly, and keep per-eAxC FIFO order for the frames that were
// still queued behind the wedge. The restart forfeits the wedged
// incarnation's A3 entries: the fresh one starts from an empty cache,
// while the abandoned call, whenever it resumes, still reads its own.
func TestWatchdogRestartsStalledShard(t *testing.T) {
	// Wall clock, and wide enough that the driver being descheduled
	// between the two back-to-back polls below cannot reach it.
	const stallAfter = 50 * time.Millisecond
	app := newWedgeApp(1)
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 2, App: app,
		CarrierPRBs: 106, RingSize: 64, Supervise: SupervisePolicy{StallAfter: stallAfter}})
	if err != nil {
		t.Fatal(err)
	}
	var outMu sync.Mutex
	var outSeq []int // FrameID*16+Subframe of port-1 emissions, in order
	e.SetOutput(func(f []byte) {
		var p fh.Packet
		if p.Decode(f) != nil {
			return
		}
		if p.EAxC().RUPort != 1 {
			return
		}
		tm, err := p.Timing()
		if err != nil {
			return
		}
		outMu.Lock()
		outSeq = append(outSeq, int(tm.FrameID)*16+int(tm.SubframeID))
		outMu.Unlock()
	})
	rec := telemetry.NewRecorder()
	rec.Attach(e.Bus(), KPIHealth)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			close(app.release)
		}
	}()

	b1 := fh.NewBuilder(duMAC, ruMAC, -1)
	// Frame 0 wedges the port-1 shard.
	for !e.TryIngress(seqFrame(t, b1, 1, 0)) {
		runtime.Gosched()
	}
	<-app.entered
	// Followers queue behind the wedge, never popped by the stuck worker.
	for i := 1; i <= 8; i++ {
		for !e.TryIngress(seqFrame(t, b1, 1, i)) {
			runtime.Gosched()
		}
	}
	// Virtual time alone does not age an invocation: the worker runs on
	// wall time, and a driver that races ahead of it proves nothing.
	s.RunFor(time.Hour)
	e.Supervise()
	s.RunFor(time.Hour)
	e.Supervise()
	if n := e.Snapshot().ShardRestarts; n != 0 {
		t.Fatalf("ShardRestarts = %d after two virtual hours and no wall time, want 0", n)
	}
	// Supervision polls on the scheduler goroutine: within StallAfter
	// plus one poll interval the stall is detected and the shard
	// restarted.
	superviseUntilRestart(e, stallAfter)
	st := e.Snapshot()
	if st.ShardRestarts != 1 {
		t.Fatalf("ShardRestarts = %d, want 1", st.ShardRestarts)
	}
	if st.Health != Stalled {
		t.Fatalf("health = %v after restart, want stalled", st.Health)
	}
	if smp, ok := rec.Last(KPIHealth); !ok || Health(smp.Value) != Stalled {
		t.Fatal("no Stalled KPIHealth sample published on restart")
	}
	// The fresh incarnation drains the queued followers; Stop joins it.
	e.Stop()
	outMu.Lock()
	got := append([]int(nil), outSeq...)
	outMu.Unlock()
	// Frame 0 was abandoned mid-Handle with the wedged incarnation; the
	// 8 followers must all emerge, in FIFO order.
	if len(got) != 8 {
		t.Fatalf("port-1 emissions = %v, want the 8 followers", got)
	}
	for i, seq := range got {
		if seq != i+1 {
			t.Fatalf("port-1 order = %v — FIFO violated across restart", got)
		}
	}
	if n := app.others.Load(); n != 0 {
		t.Fatalf("a follower saw %d packets cached by the abandoned incarnation, want 0", n)
	}
	released = true
	close(app.release)
	<-app.resumed
	if app.own != 1 {
		t.Fatalf("the abandoned call finds %d entries under its own key, want 1", app.own)
	}
}

// TestRestartRacesPreemptedWorker restarts a shard over workers that are
// merely preempted, not wedged: a per-frame App that yields inside Handle
// under a 1 ns watchdog is restarted every other poll while the old
// incarnation is still on its way back from the App. Between appEnter and
// appExit an incarnation may touch only what it owns — under -race this
// fails if the flush reads the shard's pend list there, which a restart
// resets. Whatever the restarts abandon, every emitted frame must be one
// that was offered, and each eAxC's emissions must stay in offered order.
func TestRestartRacesPreemptedWorker(t *testing.T) {
	const (
		ports  = 5 // 4000 frames each: seqFrame's numbering is unique below 4096
		frames = 20000
	)
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		runtime.Gosched()
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 1, App: app,
		CarrierPRBs: 106, RingSize: 256, Supervise: SupervisePolicy{StallAfter: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	var outMu sync.Mutex
	var out [][]byte
	collect := fhtest.CopyTo(&out)
	e.SetOutput(func(f []byte) {
		outMu.Lock()
		collect(f)
		outMu.Unlock()
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	b := fh.NewBuilder(duMAC, ruMAC, -1)
	var offered [ports][][]byte
	for i := 0; i < frames; i++ {
		port := i % ports
		f := seqFrame(t, b, uint8(port), len(offered[port]))
		offered[port] = append(offered[port], f)
		for !e.TryIngress(f) {
			e.Supervise()
			runtime.Gosched()
		}
		e.Supervise()
	}
	e.Stop()
	if e.Snapshot().ShardRestarts == 0 {
		t.Fatal("no restart happened: the probe exercised nothing")
	}
	var next [ports]int // per port: the first offered index not yet passed
	for _, f := range out {
		var p fh.Packet
		if err := p.Decode(f); err != nil {
			t.Fatalf("emitted frame does not decode: %v", err)
		}
		port := p.EAxC().RUPort
		i := next[port]
		for i < len(offered[port]) && !bytes.Equal(offered[port][i], f) {
			i++ // abandoned with a retired incarnation
		}
		if i == len(offered[port]) {
			t.Fatalf("port %d: emission is not an offered frame at or after position %d — forged, duplicated or reordered", port, next[port])
		}
		next[port] = i + 1
	}
}

// TestHealthMergeSupervision: a shard restart reports Stalled, merges
// max-wise with another shard's Degraded through Snapshot, and steps
// back down over clean health windows.
func TestHealthMergeSupervision(t *testing.T) {
	const stallAfter = time.Millisecond
	app := newWedgeApp(1)
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 2, App: app,
		CarrierPRBs: 106, RingSize: 256, Supervise: SupervisePolicy{StallAfter: stallAfter}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer close(app.release)

	// Shard 0 is Degraded (transport faults observed in a past window).
	e.shards[0].stats.health.Store(uint32(Degraded))

	b1 := fh.NewBuilder(duMAC, ruMAC, -1)
	for !e.TryIngress(seqFrame(t, b1, 1, 0)) {
		runtime.Gosched()
	}
	<-app.entered
	superviseUntilRestart(e, stallAfter)
	// One shard restarting (Stalled) while the other is Degraded: the
	// engine reports the max.
	if st := e.Snapshot(); st.ShardRestarts != 1 || st.Health != Stalled {
		t.Fatalf("mid-restart: restarts=%d health=%v, want 1/stalled", st.ShardRestarts, st.Health)
	}
	// Clean traffic through the restarted shard steps it down one level
	// per health window: Stalled → Degraded → Healthy. Shard 0 stays
	// Degraded (no windows close there), so the merge floors at Degraded.
	// Frames are pre-built: a retried TryIngress must resend the same
	// frame, not burn a fresh builder sequence number.
	clean := make([][]byte, 3*healthWindow)
	for i := range clean {
		clean[i] = seqFrame(t, b1, 1, i+1)
	}
	for _, f := range clean {
		for !e.TryIngress(f) {
			runtime.Gosched()
		}
	}
	e.Stop()
	if h := Health(e.shards[1].stats.health.Load()); h != Healthy {
		t.Fatalf("restarted shard health = %v after clean windows, want healthy", h)
	}
	if st := e.Snapshot(); st.Health != Degraded {
		t.Fatalf("merged health = %v, want degraded (shard 0)", st.Health)
	}
}

// TestBreakerDegradesHealth: a non-Closed breaker clamps the shard's
// health at Degraded even over otherwise clean windows.
func TestBreakerDegradesHealth(t *testing.T) {
	bad := true
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		if bad {
			panic("app bug")
		}
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Supervise: SupervisePolicy{PanicBudget: 1, BreakerCooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	// One panic opens the breaker; enough clean windows follow that the
	// health machine would otherwise step down to Healthy.
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 10))
	bad = false
	for i := 0; i < 3*healthWindow; i++ {
		e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 10))
	}
	s.Run()
	st := e.Snapshot()
	if st.Breaker != BreakerOpen {
		t.Fatalf("breaker = %v, want open (hour-long cooldown)", st.Breaker)
	}
	if st.Health != Degraded {
		t.Fatalf("health = %v with an open breaker, want degraded", st.Health)
	}
}

// TestSupervisedBurstPathAllocs re-runs the burst allocation gate with
// panic isolation armed: the recover boundary must not cost the hot path
// a single allocation — the budget stays at zero.
func TestSupervisedBurstPathAllocs(t *testing.T) {
	const batch = 32
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{},
		CarrierPRBs: 106, RingSize: 256, Burst: BurstPolicy{Batch: batch},
		Supervise: SupervisePolicy{PanicBudget: 3}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	e.parallel = true
	defer func() { e.parallel = false }()
	sh := e.shards[0]
	if !sh.w.isolate {
		t.Fatal("panic isolation not armed")
	}
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frame := uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
	fill := func() {
		for i := 0; i < batch; i++ {
			if !e.TryIngress(frame) {
				t.Fatal("ring full")
			}
		}
		sh.w.drainStream(sh.q, batch)
	}
	for i := 0; i < 64; i++ {
		fill()
	}
	sh.resetLatency()
	avg := testing.AllocsPerRun(50, fill)
	if avg > 0 {
		t.Fatalf("supervised burst path allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
	t.Logf("supervised burst path allocations per %d-frame burst: %.1f", batch, avg)
}

// TestSupervisionMetricsExported: the supervision counters and the
// breaker gauge must appear in the Prometheus export alongside the
// classic engine series.
func TestSupervisionMetricsExported(t *testing.T) {
	calls := 0
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		calls++
		if calls == 1 {
			panic("app bug")
		}
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Supervise: SupervisePolicy{PanicBudget: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 10))
	s.Run()

	var buf bytes.Buffer
	e.WriteMetrics(telemetry.NewPromWriter(&buf))
	got := buf.String()
	for _, series := range []string{
		"ranbooster_app_panics_total",
		"ranbooster_quarantined_total",
		"ranbooster_shard_restarts_total",
		"ranbooster_shed_total",
		"ranbooster_shed_prach_total",
		"ranbooster_breaker_state",
	} {
		if !strings.Contains(got, series) {
			t.Errorf("metrics export is missing %s", series)
		}
	}
	// The budget-1 panic opened the breaker: the gauge must read Open.
	if !strings.Contains(got, `ranbooster_breaker_state{engine="mb",mode="DPDK"} 2`) {
		t.Errorf("breaker gauge does not read open (2):\n%s", got)
	}
}
