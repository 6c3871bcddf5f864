package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

// burstRecorder is a BurstApp that records how frames were delivered.
type burstRecorder struct {
	sizes   []int // one entry per HandleBurst call
	handled int   // per-frame Handle calls (adapter fallback)
	fail    bool  // HandleBurst returns an error for the whole burst
	failPkt int   // 1-based index within each burst to report via PacketError
}

func (b *burstRecorder) Name() string { return "burst-rec" }

func (b *burstRecorder) Handle(ctx *Context, pkt *fh.Packet) error {
	b.handled++
	ctx.Forward(pkt)
	return nil
}

func (b *burstRecorder) HandleBurst(ctx *Context, pkts []*fh.Packet) error {
	b.sizes = append(b.sizes, len(pkts))
	if b.fail {
		return errors.New("burst boom")
	}
	for i, pkt := range pkts {
		if b.failPkt > 0 && i == b.failPkt-1 {
			ctx.PacketError(pkt, errors.New("pkt boom"))
			continue
		}
		ctx.Forward(pkt)
	}
	return nil
}

func TestBurstPolicyValidation(t *testing.T) {
	s := sim.NewScheduler()
	base := Config{Name: "x", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106}

	cfg := base
	cfg.Burst = BurstPolicy{Batch: -1}
	if _, err := NewEngine(s, cfg); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("negative batch: got %v, want ErrBadBatch", err)
	}
	cfg.Burst = BurstPolicy{Batch: MaxBatch + 1}
	if _, err := NewEngine(s, cfg); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("oversized batch: got %v, want ErrBadBatch", err)
	}

	// The zero value resolves to the documented defaults.
	e, err := NewEngine(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.cfg.Burst; got.Batch != DefaultBatch || got.DisableKernelRetire {
		t.Fatalf("zero BurstPolicy resolved to %+v", got)
	}
	if _, err := NewEngine(s, Config{Name: "x", Mode: ModeDPDK, App: &forwarder{},
		CarrierPRBs: 106, Burst: BurstPolicy{Batch: MaxBatch}}); err != nil {
		t.Fatalf("in-range policy rejected: %v", err)
	}
}

// drainDirect queues the frames on a single-shard engine parked in
// parallel mode and drains them as one burst through the direct-emit
// path, without worker goroutines — the deterministic inline path always
// sees 1-frame bursts, so burst delivery is exercised whitebox.
func drainDirect(t *testing.T, e *Engine, frames [][]byte) {
	t.Helper()
	e.parallel = true
	defer func() { e.parallel = false }()
	for _, f := range frames {
		if !e.TryIngress(f) {
			t.Fatal("ring full")
		}
	}
	sh := e.shards[0]
	sh.w.drainStream(sh.q, e.cfg.Burst.Batch)
}

func TestBurstAppReceivesWholeBurst(t *testing.T) {
	app := &burstRecorder{}
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Burst: BurstPolicy{Batch: 16}})
	if err != nil {
		t.Fatal(err)
	}
	var tx atomic.Uint64
	e.SetOutput(func([]byte) { tx.Add(1) })
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 100)
	}
	drainDirect(t, e, frames)
	if len(app.sizes) != 1 || app.sizes[0] != 10 {
		t.Fatalf("burst sizes = %v, want one burst of 10", app.sizes)
	}
	if app.handled != 0 {
		t.Fatalf("per-frame Handle invoked %d times on a BurstApp", app.handled)
	}
	if tx.Load() != 10 || e.Snapshot().TxFrames != 10 {
		t.Fatalf("tx = %d, TxFrames = %d, want 10", tx.Load(), e.Snapshot().TxFrames)
	}
}

func TestBurstAdapterFallsBackPerFrame(t *testing.T) {
	app := &forwarder{} // no HandleBurst: the flush must call Handle on groups of one frame
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Burst: BurstPolicy{Batch: 16}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 100)
	}
	drainDirect(t, e, frames)
	if app.handled.Load() != 10 {
		t.Fatalf("Handle invoked %d times, want 10", app.handled.Load())
	}
	if st := e.Snapshot(); st.TxFrames != 10 {
		t.Fatalf("TxFrames = %d, want 10", st.TxFrames)
	}
}

func TestBurstErrorDropsWholeBurst(t *testing.T) {
	app := &burstRecorder{fail: true}
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Burst: BurstPolicy{Batch: 16}})
	if err != nil {
		t.Fatal(err)
	}
	var tx atomic.Uint64
	e.SetOutput(func([]byte) { tx.Add(1) })
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 100)
	}
	drainDirect(t, e, frames)
	if st := e.Snapshot(); st.AppErrors != 8 || st.TxFrames != 0 || tx.Load() != 0 {
		t.Fatalf("stats = %+v tx=%d, want 8 app errors and no emissions", st, tx.Load())
	}
}

func TestBurstPacketErrorIsolatesFrame(t *testing.T) {
	app := &burstRecorder{failPkt: 3}
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		Burst: BurstPolicy{Batch: 16}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 100)
	}
	drainDirect(t, e, frames)
	if st := e.Snapshot(); st.AppErrors != 1 || st.TxFrames != 7 {
		t.Fatalf("stats = %+v, want 1 app error and 7 emissions", st)
	}
}

// TestKernelRetirement pins the fast-path contract: on an XDP engine whose
// program fully decides a frame (Tx or Drop), the frame retires in kernel —
// the App is never invoked, no punt happens, and KernelRetired attributes
// the completion.
func TestKernelRetirement(t *testing.T) {
	prog := &KernelProgram{Rules: []Rule{
		{Match: Match{Plane: fh.PlaneU}, Verdict: VerdictTx, Rewrite: &Rewrite{SetDst: &ru2MAC}},
		{Match: Match{Plane: fh.PlaneC}, Verdict: VerdictDrop},
	}}
	app := &forwarder{}
	s, e, out := newXDP(t, prog, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	for i := 0; i < 6; i++ {
		e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, uint8(i), 50))
	}
	for i := 0; i < 2; i++ {
		e.Ingress(cplaneFrame(t, b, oran.Downlink, 0))
	}
	s.Run()
	if app.handled.Load() != 0 {
		t.Fatalf("App.Handle invoked %d times for kernel-retired traffic", app.handled.Load())
	}
	st := e.Snapshot()
	if st.KernelTx != 6 || st.KernelDrop != 2 || st.KernelRetired != 8 || st.Punts != 0 {
		t.Fatalf("stats = %+v, want KernelTx 6 / KernelDrop 2 / KernelRetired 8 / Punts 0", st)
	}
	if len(*out) != 6 {
		t.Fatalf("out = %d, want 6", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ru2MAC {
		t.Fatalf("retired Tx frame dst = %v, want %v", p.Eth.Dst, ru2MAC)
	}
}

// TestKernelRetireByteIdentical replays a replicate fan-out program with
// retirement on and off (BurstPolicy.DisableKernelRetire) and requires the
// emitted byte streams to match exactly: retirement changes allocation and
// attribution, never the wire output.
func TestKernelRetireByteIdentical(t *testing.T) {
	run := func(disable bool) ([][]byte, Stats) {
		prog := &KernelProgram{Rules: []Rule{{
			Match:   Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink)},
			Verdict: VerdictTx,
			Rewrite: &Rewrite{SetDst: &ruMAC},
			Mirrors: []Rewrite{{SetDst: &ru2MAC}},
		}}}
		s := sim.NewScheduler()
		e, err := NewEngine(s, Config{Name: "xdp", Mode: ModeXDP, Kernel: prog, CarrierPRBs: 106,
			Burst: BurstPolicy{DisableKernelRetire: disable}})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		e.SetOutput(fhtest.CopyTo(&out))
		b := fh.NewBuilder(duMAC, ruMAC, 6)
		for i := 0; i < 5; i++ {
			e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, uint8(i), 77))
		}
		s.Run()
		return out, e.Snapshot()
	}
	fast, fastStats := run(false)
	compat, compatStats := run(true)
	if len(fast) != len(compat) {
		t.Fatalf("emissions differ: retired %d, compat %d", len(fast), len(compat))
	}
	for i := range fast {
		if !bytes.Equal(fast[i], compat[i]) {
			t.Fatalf("frame %d differs between retired and compat paths", i)
		}
	}
	if fastStats.KernelRetired != 5 || fastStats.KernelTx != 5 {
		t.Fatalf("retired stats = %+v, want 5 retired", fastStats)
	}
	if compatStats.KernelRetired != 0 || compatStats.KernelTx != 5 {
		t.Fatalf("compat stats = %+v, want 0 retired", compatStats)
	}
}

// burstSeqFrame builds a downlink U-plane frame whose FrameID carries a
// per-stream sequence number, so output order is observable per eAxC.
func burstSeqFrame(t *testing.T, b *fh.Builder, port uint8, seq int) []byte {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(4), bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Downlink, FrameID: uint8(seq)},
		Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

// TestBurstFIFOMixedKernelVerdicts is the ordering contract under kernel
// retirement: with parallel workers draining bursts and a program that
// retires every even-FrameID frame while punting odd ones to userspace,
// each eAxC stream's emissions must still leave in arrival order — a
// kernel completion may never overtake a punted predecessor parked in the
// same burst.
func TestBurstFIFOMixedKernelVerdicts(t *testing.T) {
	const (
		streams = 8
		perFlow = 100
		cores   = 2
	)
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneU, FrameMod: 2, FrameVal: 0},
		Verdict: VerdictTx,
		Rewrite: &Rewrite{SetDst: &ru2MAC},
	}}}
	var punted atomic.Uint64
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		punted.Add(1)
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mix", Mode: ModeXDP, Kernel: prog, App: app,
		CarrierPRBs: 106, Cores: cores, RingSize: 1024, Burst: BurstPolicy{Batch: 32}})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seen [streams][]int
	)
	e.SetOutput(func(f []byte) {
		var p fh.Packet
		if err := p.Decode(f); err != nil {
			return
		}
		tm, err := p.Timing()
		if err != nil {
			return
		}
		mu.Lock()
		port := p.EAxC().RUPort
		seen[port] = append(seen[port], int(tm.FrameID))
		mu.Unlock()
	})
	builders := make([]*fh.Builder, streams)
	for p := range builders {
		builders[p] = fh.NewBuilder(duMAC, ruMAC, -1)
	}
	frames := make([][]byte, 0, streams*perFlow)
	for seq := 0; seq < perFlow; seq++ {
		for p := 0; p < streams; p++ {
			frames = append(frames, burstSeqFrame(t, builders[p], uint8(p), seq))
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		for !e.TryIngress(f) {
			runtime.Gosched()
		}
	}
	e.Stop()

	st := e.Snapshot()
	if st.RxFrames != streams*perFlow {
		t.Fatalf("RxFrames = %d, want %d", st.RxFrames, streams*perFlow)
	}
	if want := uint64(streams * perFlow / 2); st.KernelRetired != want || st.Punts != want || punted.Load() != want {
		t.Fatalf("retired=%d punts=%d handled=%d, want %d each", st.KernelRetired, st.Punts, punted.Load(), want)
	}
	for p := 0; p < streams; p++ {
		if len(seen[p]) != perFlow {
			t.Fatalf("stream %d: %d emissions, want %d", p, len(seen[p]), perFlow)
		}
		for i, seq := range seen[p] {
			if seq != i {
				t.Fatalf("stream %d: position %d got seq %d — FIFO violated across kernel/userspace boundary", p, i, seq)
			}
		}
	}
}

// TestBurstPathAllocs pins the burst datapath's allocation budget on the
// parallel (direct-emit) path: none — the userspace packet comes from the
// worker's pool and goes back when the burst's flush ends, and frames the
// kernel retires never leave the decode scratch.
func TestBurstPathAllocs(t *testing.T) {
	const batch = 32
	measure := func(e *Engine) float64 {
		t.Helper()
		e.SetOutput(func([]byte) {})
		e.parallel = true
		defer func() { e.parallel = false }()
		sh := e.shards[0]
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
		// Warm scratch buffers and the latency window's backing arrays so
		// steady state is measured, not first-touch growth.
		for i := 0; i < 64; i++ {
			fill()
		}
		sh.resetLatency()
		return testing.AllocsPerRun(50, fill)
	}

	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{},
		CarrierPRBs: 106, RingSize: 256, Burst: BurstPolicy{Batch: batch}})
	if err != nil {
		t.Fatal(err)
	}
	avg := measure(e)
	if avg > 0 {
		t.Fatalf("userspace burst path allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
	t.Logf("userspace burst path allocations per %d-frame burst: %.1f", batch, avg)

	prog := &KernelProgram{Rules: []Rule{{
		Match: Match{Plane: fh.PlaneU}, Verdict: VerdictTx, Rewrite: &Rewrite{SetDst: &ru2MAC},
	}}}
	e2, err := NewEngine(s, Config{Name: "xdp", Mode: ModeXDP, Kernel: prog,
		CarrierPRBs: 106, RingSize: 256, Burst: BurstPolicy{Batch: batch}})
	if err != nil {
		t.Fatal(err)
	}
	if avg = measure(e2); avg > 0 {
		t.Fatalf("kernel-retired burst path allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
	t.Logf("kernel-retired burst path allocations per %d-frame burst: %.1f", batch, avg)
	if st := e2.Snapshot(); st.KernelRetired == 0 {
		t.Fatal("kernel retirement never engaged")
	}
}
