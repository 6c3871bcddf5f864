package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

// wsSeqFrame builds a downlink U-plane frame for an arbitrary full eAxC
// id, with the FrameID carrying a per-stream sequence number so output
// order is observable per stream (mod 256).
func wsSeqFrame(t *testing.T, b *fh.Builder, key uint16, seq int) []byte {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(4), bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Downlink, FrameID: uint8(seq)},
		Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcIDFromUint16(key), msg)
}

func wsConfig(cores int) Config {
	return Config{Name: "ws", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106,
		Cores: cores, Scale: ScalePolicy{WorkSteal: true}}
}

func TestScalePolicyValidation(t *testing.T) {
	s := sim.NewScheduler()
	base := wsConfig(2)

	cfg := base
	cfg.Supervise.StallAfter = 1
	if _, err := NewEngine(s, cfg); !errors.Is(err, ErrScaleSupervise) {
		t.Fatalf("watchdog + worksteal: got %v, want ErrScaleSupervise", err)
	}

	e, err := NewEngine(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if e.ws == nil || e.ws.maxStreams != wsMaxStreams || e.shards[0].q != nil {
		t.Fatalf("WorkSteal built pool %+v beside pinned queue %v", e.ws, e.shards[0].q)
	}
	// The zero value keeps the hash layout: a pinned queue per shard, no pool.
	e2, err := NewEngine(s, Config{Name: "hash", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	if e2.ws != nil || e2.shards[0].q == nil {
		t.Fatal("zero Scale built a pool or no pinned queue")
	}
}

// wsKeysHomedOn returns n distinct eAxC keys whose stream queues all home
// on the given shard, probing the engine's own placement function.
func wsKeysHomedOn(t *testing.T, e *Engine, home, n int) []uint16 {
	t.Helper()
	keys := make([]uint16, 0, n)
	for k := 0; k < 1<<16 && len(keys) < n; k++ {
		if e.ws.addStream(uint32(k)).home.id == home {
			keys = append(keys, uint16(k))
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d keys homed on shard %d", len(keys), home)
	}
	return keys
}

// TestWorkStealStealHalfAndHedge drives the pool whitebox — no worker
// goroutines — through its three pickup tiers: own deque, steal-half
// with the leave-one rule, and the hedged pickup of a stale singleton.
func TestWorkStealStealHalfAndHedge(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, wsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	e.parallel = true
	defer func() { e.parallel = false }()
	p := e.ws

	keys := wsKeysHomedOn(t, e, 0, 4)
	for _, k := range keys {
		b := fh.NewBuilder(duMAC, ruMAC, -1)
		if !e.TryIngress(wsSeqFrame(t, b, k, 0)) {
			t.Fatal("ingress rejected")
		}
	}
	if got := p.deques[0].size(); got != 4 {
		t.Fatalf("deque0 backlog = %d, want 4", got)
	}

	// Tier 2: a thief with an empty deque steals half of the deepest
	// victim (4 → take 2), runs the first and keeps the second.
	sq := p.next(e.shards[1], false)
	if sq == nil {
		t.Fatal("steal-half found nothing")
	}
	if got := e.Snapshot().Steals; got != 2 {
		t.Fatalf("Steals = %d after steal-half, want 2", got)
	}
	if p.deques[0].size() != 2 || p.deques[1].size() != 1 {
		t.Fatalf("deque sizes after steal = %d/%d, want 2/1", p.deques[0].size(), p.deques[1].size())
	}
	e.shards[1].w.runStream(sq)

	// Tier 1: the kept stream comes from the thief's own deque — no
	// steal is counted.
	sq = p.next(e.shards[1], false)
	if sq == nil {
		t.Fatal("own deque pickup found nothing")
	}
	e.shards[1].w.runStream(sq)
	if got := e.Snapshot().Steals; got != 2 {
		t.Fatalf("Steals = %d after own-deque pop, want 2", got)
	}

	// deque0 still has 2: another thief halves it to a singleton.
	sq = p.next(e.shards[2], false)
	if sq == nil {
		t.Fatal("second steal found nothing")
	}
	e.shards[2].w.runStream(sq)
	if got := p.deques[0].size(); got != 1 {
		t.Fatalf("deque0 backlog = %d, want singleton", got)
	}

	// Tier 3: the leave-one rule protects the singleton from stealing...
	if p.next(e.shards[3], false) != nil {
		t.Fatal("singleton stolen despite leave-one rule")
	}
	// ...until it turns stale, when an idle worker hedges it anyway.
	p.polls.Add(wsHedgePolls)
	sq = p.next(e.shards[3], false)
	if sq == nil {
		t.Fatal("stale singleton not hedged")
	}
	e.shards[3].w.runStream(sq)
	if got := e.Snapshot().Steals; got != 4 {
		t.Fatalf("Steals = %d after hedge, want 4", got)
	}
	if st := e.Snapshot(); st.RxFrames != 4 || st.TxFrames != 4 {
		t.Fatalf("stats = %+v, want 4 rx/tx", st)
	}
}

// TestWorkStealSkewedLoad is the property test for the skewed regime the
// pool exists for: one hot eAxC carrying 90% of the load, with every
// stream homed on the same worker — the static hash's worst case. All
// frames must be delivered, per-eAxC FIFO order must hold on every
// stream (hot and cold), cold streams must not be starved, and steals
// must be recorded.
func TestWorkStealSkewedLoad(t *testing.T) {
	const (
		cores  = 4
		cold   = 8
		hotN   = 1800 // 90%
		coldN  = 25   // ×8 = 10%
		frames = hotN + cold*coldN
	)
	s := sim.NewScheduler()
	e, err := NewEngine(s, wsConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	keys := wsKeysHomedOn(t, e, 0, cold+1)
	hot, coldKeys := keys[0], keys[1:]

	var (
		mu   sync.Mutex
		seen = map[uint16][]int{}
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
		key := p.Ecpri.PcID.Uint16()
		mu.Lock()
		seen[key] = append(seen[key], int(tm.FrameID))
		mu.Unlock()
	})

	// One builder per stream; a seeded shuffle interleaves hot and cold
	// arrivals the same way every run.
	builders := map[uint16]*fh.Builder{}
	for _, k := range keys {
		builders[k] = fh.NewBuilder(duMAC, ruMAC, -1)
	}
	rng := sim.NewRNG(0xC0FFEE)
	sched := make([]uint16, 0, frames)
	for i := 0; i < hotN; i++ {
		sched = append(sched, hot)
	}
	for _, k := range coldKeys {
		for i := 0; i < coldN; i++ {
			sched = append(sched, k)
		}
	}
	for i := len(sched) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		sched[i], sched[j] = sched[j], sched[i]
	}
	next := map[uint16]int{}
	input := make([][]byte, frames)
	for i, k := range sched {
		input[i] = wsSeqFrame(t, builders[k], k, next[k])
		next[k]++
	}

	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for _, f := range input {
		for !e.TryIngress(f) {
			runtime.Gosched()
		}
	}
	e.Stop()

	st := e.Snapshot()
	if st.RxFrames != frames || st.TxFrames != frames {
		t.Fatalf("rx=%d tx=%d, want %d each", st.RxFrames, st.TxFrames, frames)
	}
	if st.Steals == 0 {
		t.Fatal("Steals = 0: every stream was homed on one worker, yet nothing was stolen")
	}
	if len(seen[hot]) != hotN {
		t.Fatalf("hot stream delivered %d frames, want %d", len(seen[hot]), hotN)
	}
	for _, k := range coldKeys {
		if len(seen[k]) != coldN {
			t.Fatalf("cold stream %#x delivered %d frames, want %d — starved", k, len(seen[k]), coldN)
		}
	}
	for k, seqs := range seen {
		for i, got := range seqs {
			if got != i%256 {
				t.Fatalf("stream %#x: position %d got seq %d, want %d — per-eAxC FIFO violated", k, i, got, i%256)
			}
		}
	}
}

// TestWorkStealDeterminism pins the deterministic inline contract of the
// work-stealing layout: same seed, same traffic → bit-identical output
// stream and identical Snapshot, with Stats.Steals zero (inline drains
// never engage the deques).
func TestWorkStealDeterminism(t *testing.T) {
	run := func() ([][]byte, Stats) {
		s := sim.NewScheduler()
		e, err := NewEngine(s, wsConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		e.SetOutput(fhtest.CopyTo(&out))
		rng := sim.NewRNG(42)
		builders := map[uint16]*fh.Builder{}
		next := map[uint16]int{}
		for i := 0; i < 400; i++ {
			key := uint16(rng.Intn(96))
			b := builders[key]
			if b == nil {
				b = fh.NewBuilder(duMAC, ruMAC, -1)
				builders[key] = b
			}
			e.Ingress(wsSeqFrame(t, b, key, next[key]))
			next[key]++
		}
		s.Run()
		return out, e.Snapshot()
	}
	out1, st1 := run()
	out2, st2 := run()
	if st1.Steals != 0 {
		t.Fatalf("Steals = %d in deterministic inline mode, want 0", st1.Steals)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", st1, st2)
	}
	if len(out1) != len(out2) {
		t.Fatalf("emission counts differ: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if !bytes.Equal(out1[i], out2[i]) {
			t.Fatalf("emission %d differs between same-seed runs", i)
		}
	}
	if st1.RxFrames != 400 || st1.TxFrames != 400 {
		t.Fatalf("stats = %+v, want 400 rx/tx", st1)
	}
}

// TestWorkStealFoldAtMaxStreams: beyond the pool's stream bound new eAxC
// ids fold onto existing queues — bounded memory, FIFO intact.
func TestWorkStealFoldAtMaxStreams(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, wsConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e.ws.maxStreams = 2
	var tx int
	e.SetOutput(func([]byte) { tx++ })
	for key := uint16(0); key < 8; key++ {
		b := fh.NewBuilder(duMAC, ruMAC, -1)
		for i := 0; i < 4; i++ {
			e.Ingress(wsSeqFrame(t, b, key, i))
		}
	}
	s.Run()
	if got := e.ws.Streams(); got != 2 {
		t.Fatalf("stream queues = %d, want the bound's fold to 2", got)
	}
	if st := e.Snapshot(); st.RxFrames != 32 || st.TxFrames != 32 || tx != 32 {
		t.Fatalf("stats = %+v tx=%d, want 32 frames through", st, tx)
	}
}

// TestWorkStealPathAllocs extends the TestBurstPathAllocs gate to the
// work-stealing admission path: no allocation through ingress + claim +
// runStream, for userspace and kernel-retired traffic alike.
func TestWorkStealPathAllocs(t *testing.T) {
	const batch = 32
	measure := func(e *Engine) float64 {
		t.Helper()
		e.SetOutput(func([]byte) {})
		e.parallel = true
		defer func() { e.parallel = false }()
		b := fh.NewBuilder(duMAC, ruMAC, 6)
		frame := uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
		home := e.route(frame).home
		fill := func() {
			for i := 0; i < batch; i++ {
				if !e.TryIngress(frame) {
					t.Fatal("stream ring full")
				}
			}
			sq := e.ws.next(home, false)
			if sq == nil {
				t.Fatal("published stream not found")
			}
			home.w.runStream(sq)
		}
		for i := 0; i < 64; i++ {
			fill()
		}
		home.resetLatency()
		return testing.AllocsPerRun(50, fill)
	}

	s := sim.NewScheduler()
	cfg := wsConfig(2)
	cfg.Burst = BurstPolicy{Batch: batch}
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := measure(e)
	if avg > 0 {
		t.Fatalf("work-stealing userspace path allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
	t.Logf("work-stealing userspace path allocations per %d-frame burst: %.1f", batch, avg)

	prog := &KernelProgram{Rules: []Rule{{
		Match: Match{Plane: fh.PlaneU}, Verdict: VerdictTx, Rewrite: &Rewrite{SetDst: &ru2MAC},
	}}}
	cfg2 := Config{Name: "xdp-ws", Mode: ModeXDP, Kernel: prog, CarrierPRBs: 106,
		Cores: 2, Burst: BurstPolicy{Batch: batch}, Scale: ScalePolicy{WorkSteal: true}}
	e2, err := NewEngine(s, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if avg = measure(e2); avg > 0 {
		t.Fatalf("work-stealing kernel-retired path allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
	t.Logf("work-stealing kernel-retired path allocations per %d-frame burst: %.1f", batch, avg)
	if st := e2.Snapshot(); st.KernelRetired == 0 {
		t.Fatal("kernel retirement never engaged under work stealing")
	}
}
