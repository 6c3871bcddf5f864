package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

var (
	duMAC  = eth.MAC{0x02, 0, 0, 0, 0, 0x01}
	ruMAC  = eth.MAC{0x02, 0, 0, 0, 0, 0x02}
	ru2MAC = eth.MAC{0x02, 0, 0, 0, 0, 0x03}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func uplaneFrame(t *testing.T, b *fh.Builder, dir oran.Direction, port uint8, sym uint8, fill int16) []byte {
	t.Helper()
	g := iq.NewGrid(4)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: fill, Q: -fill}
		}
	}
	payload, err := bfp.CompressGrid(nil, g, bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: dir, FrameID: 1, SubframeID: 0, SlotID: 0, SymbolID: sym},
		Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

func cplaneFrame(t *testing.T, b *fh.Builder, dir oran.Direction, port uint8) []byte {
	t.Helper()
	msg := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: dir, FrameID: 1, SymbolID: 0},
		SectionType: oran.SectionType1,
		Comp:        bfp9(),
		Sections:    []oran.CSection{{NumPRB: 106, ReMask: 0xfff, NumSymbol: 14}},
	}
	return b.CPlane(ecpri.PcID{RUPort: port}, msg)
}

// forwarder forwards every packet unchanged. handled is atomic because
// the work-stealing tests run this app on several shard workers at once.
type forwarder struct{ handled atomic.Int64 }

func (f *forwarder) Name() string { return "forwarder" }
func (f *forwarder) Handle(ctx *Context, pkt *fh.Packet) error {
	f.handled.Add(1)
	ctx.Forward(pkt)
	return nil
}

func newDPDK(t *testing.T, app App) (*sim.Scheduler, *Engine, *[][]byte) {
	t.Helper()
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	e.SetOutput(fhtest.CopyTo(&out))
	return s, e, &out
}

func TestEngineForwards(t *testing.T) {
	app := &forwarder{}
	s, e, out := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	if app.handled.Load() != 1 || len(*out) != 1 {
		t.Fatalf("handled=%d out=%d", app.handled.Load(), len(*out))
	}
	st := e.Snapshot()
	if st.RxFrames != 1 || st.TxFrames != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineLatencyCharged(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	lat, ok := e.LatencyPercentile(ClassDLU, 0.5)
	if !ok {
		t.Fatal("no latency samples")
	}
	// Parse + forward: well under 300 ns (Fig. 15b's DL bound).
	if lat <= 0 || lat >= 300*time.Nanosecond {
		t.Fatalf("DL latency = %v", lat)
	}
}

func TestEngineQueueingDelaysEmission(t *testing.T) {
	// Two packets on the same core: the second's emission must queue
	// behind the first's processing.
	slow := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		ctx.AddCost(10 * time.Microsecond)
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: slow, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var at []sim.Time
	e.SetOutput(func([]byte) { at = append(at, s.Now()) })
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 4, 100))
	s.Run()
	if len(at) != 2 {
		t.Fatalf("emissions = %d", len(at))
	}
	if at[1].Sub(at[0]) < 10*time.Microsecond {
		t.Fatalf("no queueing: %v then %v", at[0], at[1])
	}
}

type appFunc func(ctx *Context, pkt *fh.Packet) error

func (appFunc) Name() string                            { return "func" }
func (f appFunc) Handle(c *Context, p *fh.Packet) error { return f(c, p) }

func TestEngineMultiCoreParallelism(t *testing.T) {
	slow := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		ctx.AddCost(10 * time.Microsecond)
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 2, App: slow, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var at []sim.Time
	e.SetOutput(func([]byte) { at = append(at, s.Now()) })
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100)) // core 0
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 1, 3, 100)) // core 1
	s.Run()
	if len(at) != 2 {
		t.Fatalf("emissions = %d", len(at))
	}
	if at[1].Sub(at[0]) > time.Microsecond {
		t.Fatalf("ports on different cores should process in parallel: %v vs %v", at[0], at[1])
	}
}

func TestCacheActions(t *testing.T) {
	var taken int
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		key, err := fh.KeyOf(pkt)
		if err != nil {
			return err
		}
		ctx.Cache(key, pkt)
		if ctx.CachedCount(key) == 2 {
			taken = len(ctx.TakeCached(key))
		}
		return nil
	})
	s, e, _ := newDPDK(t, app)
	_ = e
	b1 := fh.NewBuilder(duMAC, ruMAC, 6)
	b2 := fh.NewBuilder(duMAC, ru2MAC, 6)
	// Same symbol + port from two sources.
	e.Ingress(uplaneFrame(t, b1, oran.Uplink, 0, 3, 100))
	e.Ingress(uplaneFrame(t, b2, oran.Uplink, 0, 3, 200))
	s.Run()
	if taken != 2 {
		t.Fatalf("taken = %d", taken)
	}
}

func TestCacheSweep(t *testing.T) {
	c := NewCache(time.Millisecond)
	var p fh.Packet
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	if err := p.Decode(b.CPlane(ecpri.PcID{}, &oran.CPlaneMsg{
		SectionType: oran.SectionType1, Sections: []oran.CSection{{NumPRB: 1}}})); err != nil {
		t.Fatal(err)
	}
	key := fh.Key{}
	c.Put(key, &p, 0)
	if n := c.Sweep(sim.Time(500_000)); n != 0 {
		t.Fatalf("early sweep dropped %d", n)
	}
	if n := c.Sweep(sim.Time(2_000_000)); n != 1 {
		t.Fatalf("late sweep dropped %d", n)
	}
	if c.Len() != 0 || c.Swept() != 1 {
		t.Fatalf("len=%d swept=%d", c.Len(), c.Swept())
	}
	if c.Take(key) != nil {
		t.Fatal("swept entry still takeable")
	}
}

// TestCacheSweepQueue pins the insertion-order sweep introduced when the
// map-range sweep was removed (detflow: map iteration order is
// randomized per process). The sweep must drop exactly the expired
// entries even when the queue holds stale records: a Taken key must not
// be double-counted, and a key re-inserted after Take must survive a
// sweep that expires only its original record.
func TestCacheSweepQueue(t *testing.T) {
	c := NewCache(time.Millisecond)
	var p fh.Packet
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	if err := p.Decode(b.CPlane(ecpri.PcID{}, &oran.CPlaneMsg{
		SectionType: oran.SectionType1, Sections: []oran.CSection{{NumPRB: 1}}})); err != nil {
		t.Fatal(err)
	}
	k1 := fh.Key{EAxC: 1}
	k2 := fh.Key{EAxC: 2}
	k3 := fh.Key{EAxC: 3}
	c.Put(k1, &p, sim.Time(0))
	c.Put(k2, &p, sim.Time(100_000))
	c.Put(k3, &p, sim.Time(200_000))
	// k2 leaves through Take; its queue record goes stale.
	if c.Take(k2) == nil {
		t.Fatal("take k2")
	}
	// k2 comes back young: the stale record must not evict the fresh entry.
	c.Put(k2, &p, sim.Time(900_000))
	// At t=1.15ms the originals (t=0, 0.1ms) are expired, k3 (0.2ms) is
	// not — MaxAge is 1ms — and neither is the re-inserted k2.
	if n := c.Sweep(sim.Time(1_150_000)); n != 1 {
		t.Fatalf("sweep dropped %d packets, want 1 (k1 only)", n)
	}
	if c.Peek(k1) != nil {
		t.Fatal("k1 survived its expiry")
	}
	if c.Peek(k2) == nil || c.Peek(k3) == nil {
		t.Fatal("sweep evicted a live entry via a stale queue record")
	}
	// Everything expires eventually; repeated sweeps stay idempotent.
	if n := c.Sweep(sim.Time(5_000_000)); n != 2 {
		t.Fatalf("final sweep dropped %d packets, want 2", n)
	}
	if n := c.Sweep(sim.Time(6_000_000)); n != 0 || c.Len() != 0 {
		t.Fatalf("idempotent re-sweep dropped %d, len=%d", n, c.Len())
	}
}

func TestAppErrorCounted(t *testing.T) {
	bad := appFunc(func(ctx *Context, pkt *fh.Packet) error { return errors.New("boom") })
	s, e, out := newDPDK(t, bad)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	if e.Snapshot().AppErrors != 1 || len(*out) != 0 {
		t.Fatalf("stats = %+v out=%d", e.Snapshot(), len(*out))
	}
}

func TestModifyUPlane(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		q, err := ctx.ModifyUPlane(pkt, 106, func(msg *oran.UPlaneMsg) error {
			msg.Sections[0].StartPRB = 50
			return nil
		})
		if err != nil {
			return err
		}
		ctx.Forward(q)
		return nil
	})
	s, e, out := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	var msg oran.UPlaneMsg
	if err := p.UPlane(&msg, 106); err != nil {
		t.Fatal(err)
	}
	if msg.Sections[0].StartPRB != 50 {
		t.Fatalf("mutation lost: %+v", msg.Sections[0])
	}
}

func TestReplicateIndependence(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		cp := ctx.Replicate(pkt)
		if err := cp.Redirect(ru2MAC, duMAC, -1); err != nil {
			return err
		}
		ctx.Forward(pkt)
		ctx.Forward(cp)
		return nil
	})
	s, e, out := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	if len(*out) != 2 {
		t.Fatalf("out = %d", len(*out))
	}
	var a, c fh.Packet
	if err := a.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Decode((*out)[1]); err != nil {
		t.Fatal(err)
	}
	if a.Eth.Dst == c.Eth.Dst {
		t.Fatal("replica addressing leaked into original")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}}); !errors.Is(err, ErrBadCarrierPRBs) {
		t.Fatalf("missing CarrierPRBs: got %v, want ErrBadCarrierPRBs", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, CarrierPRBs: 106}); !errors.Is(err, ErrNoApp) {
		t.Fatalf("DPDK without app: got %v, want ErrNoApp", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeXDP, CarrierPRBs: 106}); !errors.Is(err, ErrNoKernel) {
		t.Fatalf("XDP without kernel: got %v, want ErrNoKernel", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: Mode(9), CarrierPRBs: 106}); !errors.Is(err, ErrBadMode) {
		t.Fatalf("bad mode: got %v, want ErrBadMode", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106, Cores: -1}); !errors.Is(err, ErrBadCores) {
		t.Fatalf("negative cores: got %v, want ErrBadCores", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106, Cores: MaxCores + 1}); !errors.Is(err, ErrBadCores) {
		t.Fatalf("oversized cores: got %v, want ErrBadCores", err)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106, RingSize: MaxRingSize + 1}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("oversized ring: got %v, want ErrBadRing", err)
	}
	bad := &KernelProgram{Rules: make([]Rule, MaxKernelRules+1)}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeXDP, Kernel: bad, CarrierPRBs: 106}); !errors.Is(err, ErrKernelUnverified) {
		t.Fatalf("unverifiable kernel: got %v, want ErrKernelUnverified", err)
	}
	e, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 1 {
		t.Fatalf("Cores=0 should default to one shard, got %d", e.Shards())
	}
}

func TestClassify(t *testing.T) {
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	var p fh.Packet
	if err := p.Decode(uplaneFrame(t, b, oran.Downlink, 0, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if Classify(&p) != ClassDLU {
		t.Fatal("DL U")
	}
	if err := p.Decode(uplaneFrame(t, b, oran.Uplink, 0, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if Classify(&p) != ClassULU {
		t.Fatal("UL U")
	}
	if err := p.Decode(cplaneFrame(t, b, oran.Downlink, 0)); err != nil {
		t.Fatal(err)
	}
	if Classify(&p) != ClassDLC {
		t.Fatal("DL C")
	}
	for _, c := range []TrafficClass{ClassDLC, ClassDLU, ClassULC, ClassULU, TrafficClass(9)} {
		if c.String() == "" {
			t.Fatal("class name")
		}
	}
}

func TestUtilizationModes(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	s.RunFor(time.Millisecond)
	if u := e.Utilization(); u != 1 {
		t.Fatalf("DPDK idle utilization = %v, want 1 (poll mode)", u)
	}
	if e.Mode().String() != "DPDK" || ModeXDP.String() != "XDP" {
		t.Fatal("mode names")
	}
}

func TestControlInterface(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	_ = s
	if err := e.Control("set", nil); err == nil {
		t.Fatal("non-controllable app accepted command")
	}
}

// TestEngineSteadyStateAllocs pins the per-frame allocation budget of the
// deterministic inline datapath, ingress through deferred emit. The shard
// reuses its Context, pass-through scratch and kernel emit buffer across
// frames and the emit is a closure-free scheduler frame event on a value
// heap, the userspace packet comes from the worker's pool and goes back
// when Handle has returned, and a frame the kernel half retires never
// leaves the decode scratch (DESIGN.md §6.6, §6.10): nothing allocates. A
// jump here means a reuse path regressed, a release point stopped
// releasing, or a per-frame closure came back.
func TestEngineSteadyStateAllocs(t *testing.T) {
	retire := &KernelProgram{Rules: []Rule{{
		Match: Match{Plane: fh.PlaneU}, Verdict: VerdictTx, Rewrite: &Rewrite{SetDst: &ru2MAC},
	}}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"userspace", Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106}},
		{"kernel-retired", Config{Name: "xdp", Mode: ModeXDP, Kernel: retire, CarrierPRBs: 106}},
	} {
		s := sim.NewScheduler()
		e, err := NewEngine(s, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		e.SetOutput(func([]byte) { emitted++ })
		b := fh.NewBuilder(duMAC, ruMAC, 6)
		frame := uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
		step := func() {
			e.Ingress(frame)
			s.Run()
		}
		// Warm up: let ring buffers, trace reservoirs, counters and the
		// scheduler's heap settle.
		for i := 0; i < 64; i++ {
			step()
		}
		avg := testing.AllocsPerRun(200, step)
		if avg > 0 {
			t.Errorf("%s: steady-state datapath allocates %.2f objects/frame, want 0", tc.name, avg)
		}
		t.Logf("%s: steady-state allocations per frame: %.2f", tc.name, avg)
		if emitted != 64+201 { // AllocsPerRun makes one warm-up call of its own
			t.Errorf("%s: %d frames emitted, want %d", tc.name, emitted, 64+201)
		}
		if tc.cfg.Kernel != nil && e.Snapshot().KernelRetired == 0 {
			t.Errorf("%s: kernel retirement never engaged", tc.name)
		}
	}
}
