package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

func TestRing(t *testing.T) {
	r := newRing(3) // rounds up to 4
	if len(r.buf) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.buf))
	}
	if _, _, ok := r.pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.push([]byte{byte(i)}, sim.Time(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push([]byte{9}, 9) {
		t.Fatal("push into full ring succeeded")
	}
	if r.queued() != 4 {
		t.Fatalf("queued = %d, want 4", r.queued())
	}
	// FIFO across a wraparound; the enqueue stamp rides along with its
	// frame.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			f, at, ok := r.pop()
			if !ok || f[0] != byte(i) || at != sim.Time(i) {
				t.Fatalf("round %d: pop = %v,%v,%v, want [%d] at %d", round, f, at, ok, i, i)
			}
			if !r.push([]byte{byte(i)}, sim.Time(i)) {
				t.Fatalf("round %d: refill %d failed", round, i)
			}
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{RxFrames: 1, TxFrames: 2, ParseError: 3, KernelTx: 4, KernelDrop: 5, Punts: 6, AppDrops: 7, AppErrors: 8, RingDrops: 9}
	b := Stats{RxFrames: 10, TxFrames: 20, ParseError: 30, KernelTx: 40, KernelDrop: 50, Punts: 60, AppDrops: 70, AppErrors: 80, RingDrops: 90}
	got := a.Add(b)
	want := Stats{RxFrames: 11, TxFrames: 22, ParseError: 33, KernelTx: 44, KernelDrop: 55, Punts: 66, AppDrops: 77, AppErrors: 88, RingDrops: 99}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

// seqFrame builds a downlink U-plane frame on the given RU port carrying a
// per-stream sequence number in its radio timing (seq = FrameID*16 +
// SubframeID).
func seqFrame(t *testing.T, b *fh.Builder, port uint8, seq int) []byte {
	t.Helper()
	g := iq.NewGrid(4)
	payload, err := bfp.CompressGrid(nil, g, bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Downlink, FrameID: uint8(seq / 16), SubframeID: uint8(seq % 16)},
		Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

const fifoStreams = 8

// fifoApp records the per-stream handling order. pause, when set, holds
// each Handle open so overlapping workers show up in maxConc.
type fifoApp struct {
	seen     [fifoStreams][]int // seen[p] is written only by whoever owns stream p
	pause    time.Duration
	inflight atomic.Int32
	maxConc  atomic.Int32
}

func (a *fifoApp) Name() string { return "fifo" }

func (a *fifoApp) Handle(ctx *Context, pkt *fh.Packet) error {
	n := a.inflight.Add(1)
	for {
		m := a.maxConc.Load()
		if n <= m || a.maxConc.CompareAndSwap(m, n) {
			break
		}
	}
	tim, err := pkt.Timing()
	if err != nil {
		return err
	}
	port := pkt.EAxC().RUPort
	a.seen[port] = append(a.seen[port], int(tim.FrameID)*16+int(tim.SubframeID))
	time.Sleep(a.pause) // widen the race window
	a.inflight.Add(-1)
	ctx.Forward(pkt)
	return nil
}

// fifoBurstApp is fifoApp behind the BurstApp contract: one call per
// drained burst.
type fifoBurstApp struct{ fifoApp }

func (a *fifoBurstApp) HandleBurst(ctx *Context, pkts []*fh.Packet) error {
	for _, pkt := range pkts {
		if err := a.Handle(ctx, pkt); err != nil {
			ctx.PacketError(pkt, err)
		}
	}
	return nil
}

// TestShardFIFOOrdering is the sharding contract test: with parallel
// workers over 4 cores and 8 eAxC streams, frames of one stream must be
// handled in arrival order while distinct streams are free to interleave,
// and every admitted frame must come out. The per-frame row pauses inside
// Handle and requires the workers to overlap; the burst rows run a
// BurstApp with no pause across batch size × admission layout — what
// catches a panic, a deadlock or a lost frame under parallel bursts.
func TestShardFIFOOrdering(t *testing.T) {
	const (
		perFlow = 200
		cores   = 4
		total   = fifoStreams * perFlow
	)
	// Pre-build all frames, interleaved round-robin across the streams.
	frames := make([][]byte, 0, total)
	builders := make([]*fh.Builder, fifoStreams)
	for p := range builders {
		builders[p] = fh.NewBuilder(duMAC, ruMAC, -1)
	}
	for seq := 0; seq < perFlow; seq++ {
		for p := 0; p < fifoStreams; p++ {
			frames = append(frames, seqFrame(t, builders[p], uint8(p), seq))
		}
	}

	for _, r := range []struct {
		name  string
		batch int // 0: the per-frame App, paused, workers must overlap
		ws    bool
	}{
		{"perframe/hash", 0, false},
		{"burst=1/hash", 1, false}, {"burst=16/hash", 16, false}, {"burst=64/hash", 64, false},
		{"burst=1/worksteal", 1, true}, {"burst=16/worksteal", 16, true}, {"burst=64/worksteal", 64, true},
	} {
		t.Run(r.name, func(t *testing.T) {
			burst := &fifoBurstApp{}
			fifo, app := &burst.fifoApp, App(burst)
			if r.batch == 0 {
				fifo.pause, app = 20*time.Microsecond, fifo
			}
			s := sim.NewScheduler()
			e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: cores, App: app,
				CarrierPRBs: 106, RingSize: 64,
				Burst: BurstPolicy{Batch: r.batch}, Scale: ScalePolicy{WorkSteal: r.ws}})
			if err != nil {
				t.Fatal(err)
			}
			var tx atomic.Uint64
			e.SetOutput(func([]byte) { tx.Add(1) })

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
			if st.RxFrames != total || st.TxFrames != total || tx.Load() != total {
				t.Fatalf("RxFrames = %d, TxFrames = %d, emitted = %d, want %d each", st.RxFrames, st.TxFrames, tx.Load(), total)
			}
			for p := 0; p < fifoStreams; p++ {
				if len(fifo.seen[p]) != perFlow {
					t.Fatalf("stream %d: %d frames, want %d", p, len(fifo.seen[p]), perFlow)
				}
				for i, seq := range fifo.seen[p] {
					if seq != i {
						t.Fatalf("stream %d: position %d got seq %d — FIFO order violated", p, i, seq)
					}
				}
			}
			if r.batch == 0 && fifo.maxConc.Load() < 2 {
				t.Fatalf("max concurrency = %d, want >= 2 (workers never overlapped)", fifo.maxConc.Load())
			}
		})
	}
}

func TestStartStopLifecycle(t *testing.T) {
	s, e, out := newDPDK(t, &forwarder{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Start: got %v, want ErrRunning", err)
	}
	e.Stop()
	e.Stop() // idempotent
	// Back in deterministic mode: inline processing plus scheduled emission.
	b := fh.NewBuilder(duMAC, ruMAC, -1)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 0, 1))
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("deterministic mode after Stop emitted %d frames, want 1", len(*out))
	}
	if err := e.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	e.Stop()
}

type serialForwarder struct{ forwarder }

func (*serialForwarder) Serial() {}

func TestSerialAppRefusesParallelShards(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 2, App: &serialForwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); !errors.Is(err, ErrSerialApp) {
		t.Fatalf("Start: got %v, want ErrSerialApp", err)
	}
	// A single shard is fine: there is nothing to parallelize across.
	e1, err := NewEngine(s, Config{Name: "mb1", Mode: ModeDPDK, Cores: 1, App: &serialForwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Start(); err != nil {
		t.Fatalf("single-shard serial Start: %v", err)
	}
	e1.Stop()
}

// TestIngressRingDrops saturates a tiny ring behind a blocked worker and
// checks the drop accounting: every pushed frame is either processed or
// counted in RingDrops.
func TestIngressRingDrops(t *testing.T) {
	const pushed = 8
	gate := make(chan struct{})
	var once sync.Once
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		once.Do(func() { <-gate })
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	// Batch 1: the gated worker holds exactly one frame, not a drained burst.
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 1, App: app, CarrierPRBs: 106, RingSize: 2,
		Burst: BurstPolicy{Batch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	b := fh.NewBuilder(duMAC, ruMAC, -1)
	for i := 0; i < pushed; i++ {
		e.Ingress(seqFrame(t, b, 0, i))
	}
	close(gate)
	e.Stop()
	st := e.Snapshot()
	if st.RxFrames+st.RingDrops != pushed {
		t.Fatalf("RxFrames(%d) + RingDrops(%d) != pushed(%d)", st.RxFrames, st.RingDrops, pushed)
	}
	if st.RingDrops < pushed-3 { // at most ring(2) + 1 in-flight accepted
		t.Fatalf("RingDrops = %d, want >= %d", st.RingDrops, pushed-3)
	}
}

// TestSnapshotMergesShards checks that per-shard counters sum into one
// engine-wide view and that undecodable frames land on shard 0's parse
// error counter.
func TestSnapshotMergesShards(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, Cores: 4, App: &forwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, -1)
	for port := 0; port < 8; port++ {
		e.Ingress(seqFrame(t, b, uint8(port), 0))
	}
	e.Ingress([]byte{0xde, 0xad}) // too short for any header
	s.Run()
	st := e.Snapshot()
	if st.RxFrames != 9 || st.TxFrames != 8 || st.ParseError != 1 {
		t.Fatalf("Snapshot = %+v, want Rx 9 / Tx 8 / ParseError 1", st)
	}
}
