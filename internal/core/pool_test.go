package core

import (
	"bytes"
	"testing"
	"time"

	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

// The frame-ownership contract (DESIGN.md §6.10), from outside the engine:
// what the output function is lent, and that every pool packet is released
// exactly once whichever way it leaves. Under the race detector a second
// release panics and a released buffer is poisoned, so these tests bite
// hardest there; without it they check what a double release or a missed
// one would do to the bytes and to the allocation count.

// symFrame is a small DL U-plane frame whose payload is filled with fill.
func symFrame(t *testing.T, b *fh.Builder, sym uint8, fill int16) []byte {
	return uplaneFrame(t, b, oran.Downlink, 0, sym, fill)
}

// TestOutputFrameBorrowed: the output function is lent the frame. A consumer
// that keeps a replica's slice instead of copying it finds other bytes in
// it once the engine has made the next replica (poison at once in a race
// build); the frame the engine forwarded zero-copy from its ingress buffer
// is the caller's and stays as it was.
func TestOutputFrameBorrowed(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		ctx.Forward(ctx.Replicate(pkt))
		ctx.Forward(pkt)
		return nil
	})
	s, e, _ := newDPDK(t, app)
	var kept, copies [][]byte
	collect := fhtest.CopyTo(&copies)
	e.SetOutput(func(f []byte) {
		kept = append(kept, f)
		collect(f)
	})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	in := [][]byte{symFrame(t, b, 3, 100), symFrame(t, b, 4, 7000)}
	for _, f := range in {
		e.Ingress(f)
		s.Run()
	}
	if len(kept) != 4 {
		t.Fatalf("%d frames emitted, want 4", len(kept))
	}
	// Emit order per frame: the replica, then the original.
	if !bytes.Equal(copies[0], copies[1]) || !bytes.Equal(copies[2], copies[3]) {
		t.Fatal("a replica left with other bytes than its original")
	}
	if bytes.Equal(copies[0], copies[2]) {
		t.Fatal("test frames must differ")
	}
	if bytes.Equal(kept[0], copies[0]) {
		t.Error("the first replica's buffer still holds its bytes after the next replica was made: it was not recycled")
	}
	for i, orig := range []int{1, 3} {
		if !bytes.Equal(kept[orig], copies[orig]) || &kept[orig][0] != &in[i][0] {
			t.Errorf("frame %d: the zero-copy forward of the ingress buffer was touched", i)
		}
	}
}

// TestEmitIsNotTheOnlyWayOut: a pool buffer is recycled after its emit
// only if the emit is its single way out. A replica forwarded twice, and
// one that is cached as well as forwarded, must arrive intact both times
// and later — their buffers are left to the collector.
func TestEmitIsNotTheOnlyWayOut(t *testing.T) {
	var cached []*fh.Packet
	var key fh.Key
	n := 0
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		n++
		switch n {
		case 1: // forwarded twice
			cp := ctx.Replicate(pkt)
			ctx.Forward(cp)
			ctx.Forward(cp)
		case 2: // cached and forwarded
			cp := ctx.Replicate(pkt)
			var err error
			if key, err = fh.KeyOf(cp); err != nil {
				return err
			}
			ctx.Cache(key, cp)
			ctx.Forward(cp)
		default: // churn the pool, then look at what the cache still holds
			ctx.Forward(ctx.Replicate(pkt))
			if n == 6 {
				cached = append(cached, ctx.TakeCached(key)...)
				for _, p := range cached {
					ctx.Forward(p)
				}
			}
		}
		return nil
	})
	s, e, out := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	var in [][]byte
	for sym := uint8(3); sym < 9; sym++ {
		in = append(in, symFrame(t, b, sym, int16(sym)*1000))
	}
	for _, f := range in {
		e.Ingress(f)
		s.Run()
	}
	if len(cached) != 1 {
		t.Fatalf("took %d cached packets, want 1 (key mismatch?)", len(cached))
	}
	want := [][]byte{in[0], in[0], in[1], in[2], in[3], in[4], in[5], in[1]}
	if len(*out) != len(want) {
		t.Fatalf("%d frames emitted, want %d", len(*out), len(want))
	}
	for i := range want {
		if !bytes.Equal((*out)[i], want[i]) {
			t.Errorf("emit %d does not carry the bytes of its source frame", i)
		}
	}
}

// poolPackets draws n Packets from w's pool and returns how often each
// came out: the identities of what has been released (a free list shorter
// than n tops up with new ones).
func poolPackets(w *worker, n int) map[*fh.Packet]int {
	seen := map[*fh.Packet]int{}
	for i := 0; i < n; i++ {
		seen[w.pool.Get()]++
	}
	return seen
}

// TestPacketReleasedOnce drives the two cache shapes of the reference apps
// and checks each pool packet comes back exactly once.
func TestPacketReleasedOnce(t *testing.T) {
	// das-shaped: four RU frames of one symbol are cached; the fourth is
	// the current packet and, through TakeCached, part of the taken entry.
	// All four and the rebuilt sum are released at the end of that Handle.
	t.Run("put-then-take", func(t *testing.T) {
		const rus = 4
		merges := 0
		app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
			key, err := fh.KeyOf(pkt)
			if err != nil {
				return err
			}
			ctx.Cache(key, pkt)
			if ctx.CachedCount(key) < rus {
				return nil
			}
			pkts := ctx.TakeCached(key)
			if pkts[rus-1] != pkt {
				t.Error("the current packet is not the last of the taken entry")
			}
			msg := ctx.UPlaneScratch(0)
			if err := pkts[0].UPlane(msg, 106); err != nil {
				return err
			}
			merges++
			ctx.Forward(ctx.Rebuild(pkts[0], msg.AppendTo))
			return nil
		})
		s, e, out := newDPDK(t, app)
		b := fh.NewBuilder(ruMAC, duMAC, 6)
		frames := make([][]byte, rus)
		for i := range frames {
			frames[i] = uplaneFrame(t, b, oran.Uplink, 0, 5, int16(100*(i+1)))
		}
		cycle := func() {
			for _, f := range frames {
				e.Ingress(f)
			}
			s.Run()
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if merges != 8 || len(*out) != 8 {
			t.Fatalf("%d merges, %d frames out, want 8 and 8", merges, len(*out))
		}
		for i, f := range *out {
			if !bytes.Equal(f, frames[0]) {
				t.Fatalf("merge %d does not carry the first RU's re-encoded bytes", i)
			}
		}
		if !raceEnabled {
			e.SetOutput(func([]byte) {})
			if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
				t.Errorf("cycle allocates %.1f objects: something is not released", avg)
			}
		}
		// Five Packets are in circulation (four frames + the sum), each on
		// the free list once.
		w := e.shards[0].w
		seen := poolPackets(w, rus+1)
		for p, n := range seen {
			if n != 1 {
				t.Errorf("packet %p is on the free list %d times", p, n)
			}
		}
		if len(seen) != rus+1 {
			t.Errorf("%d distinct packets in circulation, want %d", len(seen), rus+1)
		}
	})

	// rushare-shaped: C-plane requests are cached and only ever peeked;
	// they outlive their Handle by ~25 slots and are released by Sweep,
	// which counts them as it always did.
	t.Run("peek-then-sweep", func(t *testing.T) {
		const requests = 4
		var cplanes []*fh.Packet
		ckey := fh.Key{EAxC: 0x8000}
		peeked := 0
		app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
			if pkt.Plane() == fh.PlaneC {
				cplanes = append(cplanes, pkt)
				ctx.Cache(ckey, pkt)
				return nil
			}
			for _, p := range ctx.Cached(ckey) {
				if p.Plane() != fh.PlaneC {
					t.Error("a cached C-plane packet was recycled under the cache")
				}
				peeked++
			}
			ctx.Forward(pkt)
			return nil
		})
		s, e, _ := newDPDK(t, app)
		e.SetOutput(func([]byte) {})
		b := fh.NewBuilder(duMAC, ruMAC, 6)
		for i := 0; i < requests; i++ {
			e.Ingress(cplaneFrame(t, b, oran.Downlink, 0))
		}
		u := symFrame(t, b, 3, 100)
		w := e.shards[0].w
		// 25 slots of U-plane, half a millisecond apart: the entry is older
		// than cacheMaxAge long before a sweep comes round, and survives
		// until one does.
		for slot := 0; slot < 25; slot++ {
			s.RunUntil(sim.Time(slot+1) * sim.Time(500*time.Microsecond))
			for i := 0; i < 14; i++ {
				e.Ingress(u)
			}
			s.Run()
		}
		if peeked != 25*14*requests {
			t.Fatalf("peeked %d cached packets, want %d", peeked, 25*14*requests)
		}
		if got := w.cache.Swept(); got != 0 {
			t.Fatalf("%d packets swept before the sweep cadence came round", got)
		}
		for i := e.Snapshot().RxFrames; i < sweepEvery; i++ {
			e.Ingress(u)
		}
		s.Run()
		if got := w.cache.Swept(); got != requests {
			t.Fatalf("swept %d packets, want %d", got, requests)
		}
		if w.cache.Len() != 0 {
			t.Fatalf("%d keys left after the sweep", w.cache.Len())
		}
		// The four C-plane Packets and the one cycling U-plane Packet are
		// on the free list, once each.
		seen := poolPackets(w, requests+1)
		for _, p := range cplanes {
			if seen[p] != 1 {
				t.Errorf("swept packet %p is on the free list %d times, want once", p, seen[p])
			}
		}
	})
}

// TestParallelEmitRecycles: under parallel workers the output function is
// called from the worker and the pool buffer released right after it, so a
// replicating App's steady state allocates nothing there either.
func TestParallelEmitRecycles(t *testing.T) {
	const batch = 8
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		ctx.Forward(ctx.Replicate(pkt))
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106,
		RingSize: 64, Burst: BurstPolicy{Batch: batch}})
	if err != nil {
		t.Fatal(err)
	}
	tx := 0
	e.SetOutput(func([]byte) { tx++ })
	e.parallel = true // direct-emit path, driven from this goroutine
	defer func() { e.parallel = false }()
	sh := e.shards[0]
	frame := symFrame(t, fh.NewBuilder(duMAC, ruMAC, 6), 3, 100)
	fill := func() {
		for i := 0; i < batch; i++ {
			if !e.TryIngress(frame) {
				t.Fatal("ring full")
			}
		}
		sh.w.drainStream(sh.q, batch)
	}
	for i := 0; i < 16; i++ {
		fill()
	}
	sh.resetLatency()
	if tx != 16*batch*2 {
		t.Fatalf("%d frames emitted, want %d", tx, 16*batch*2)
	}
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(50, fill); avg > 0 {
		t.Fatalf("parallel emit of replicas allocates %.1f objects per %d-frame burst, want 0", avg, batch)
	}
}

// TestRecyclerStandsDownUnderStart: a pool buffer scheduled for egress in
// inline mode and delivered after Start is not released by the scheduler
// goroutine — the pool is the worker goroutine's by then — so the next
// replica does not land in it.
func TestRecyclerStandsDownUnderStart(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		ctx.Forward(ctx.Replicate(pkt))
		return nil
	})
	s, e, _ := newDPDK(t, app)
	var kept [][]byte
	e.SetOutput(func(f []byte) { kept = append(kept, f) })
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	for _, started := range []bool{false, true} {
		kept = kept[:0]
		e.Ingress(symFrame(t, b, 3, 100)) // the replica's emit is scheduled
		if started {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		s.Run() // delivered
		if started {
			e.Stop()
		}
		e.Ingress(symFrame(t, b, 4, 200))
		s.Run()
		if len(kept) != 2 {
			t.Fatalf("started=%v: %d frames emitted, want 2", started, len(kept))
		}
		if reused := &kept[0][0] == &kept[1][0]; reused == started {
			t.Errorf("started=%v: second replica reused the first one's buffer = %v", started, reused)
		}
	}
}
