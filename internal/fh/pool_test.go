package fh

import (
	"bytes"
	"testing"

	"ranbooster/internal/oran"
)

// samePacket fails unless got is field for field the packet a heap Clone or
// Rebuild returned, over a frame of identical bytes in its own buffer.
func samePacket(t *testing.T, what string, got, want *Packet) {
	t.Helper()
	if !bytes.Equal(got.Frame, want.Frame) {
		t.Fatalf("%s: frame differs from the heap variant's", what)
	}
	if got.Eth != want.Eth || got.Ecpri != want.Ecpri || got.appOff != want.appOff || !bytes.Equal(got.App, want.App) {
		t.Fatalf("%s: decoded view differs from the heap variant's", what)
	}
	if len(got.Frame) > 0 && len(want.Frame) > 0 && &got.Frame[0] == &want.Frame[0] {
		t.Fatalf("%s: shares its buffer with the heap variant", what)
	}
}

// reencode returns the encoder that re-serializes p's own O-RAN message.
func reencode(t *testing.T, p *Packet) func([]byte) []byte {
	t.Helper()
	switch p.Plane() {
	case PlaneU:
		msg := new(oran.UPlaneMsg)
		if err := p.UPlane(msg, goldenCarrierPRBs); err != nil {
			t.Fatal(err)
		}
		return msg.AppendTo
	case PlaneC:
		msg := new(oran.CPlaneMsg)
		if err := p.CPlane(msg, goldenCarrierPRBs); err != nil {
			t.Fatal(err)
		}
		return msg.AppendTo
	}
	t.Fatal("golden vector of unknown plane")
	return nil
}

// TestPoolMatchesHeap: on every golden vector, Pool.Clone and Pool.Rebuild
// return what the heap variants return, from a fresh pool and from recycled
// packets and buffers of both size classes alike.
func TestPoolMatchesHeap(t *testing.T) {
	pl := NewPool()
	for round := 0; round < 3; round++ {
		for _, v := range goldenVectors(t) {
			var p Packet
			if err := p.Decode(v.frame); err != nil {
				t.Fatal(err)
			}
			clone := pl.Clone(&p)
			samePacket(t, v.name+" clone", clone, p.Clone())
			if !clone.Pooled() {
				t.Fatalf("%s: clone of a %d-byte frame is not in a pool buffer", v.name, len(v.frame))
			}
			if want := len(v.frame) <= smallBuf; (cap(clone.Frame) == smallBuf) != want {
				t.Fatalf("%s: %d-byte clone in a %d-byte buffer", v.name, len(v.frame), cap(clone.Frame))
			}
			enc := reencode(t, &p)
			rebuilt := pl.Rebuild(&p, enc)
			samePacket(t, v.name+" rebuild", rebuilt, Rebuild(&p, enc))
			if !bytes.Equal(rebuilt.Frame, v.frame) {
				t.Fatalf("%s: rebuild of the frame's own message changed its bytes", v.name)
			}
			pl.Put(clone)
			pl.Put(rebuilt)
		}
	}
	if len(pl.pkts) != 2 || len(pl.small)+len(pl.jumbo) != 2 {
		t.Fatalf("free lists hold %d packets, %d+%d buffers after balanced get/put, want 2 and 2 in all",
			len(pl.pkts), len(pl.small), len(pl.jumbo))
	}
}

// TestPoolSteadyStateAllocs: clone, rebuild and release cycle without
// allocating once the free lists are primed.
func TestPoolSteadyStateAllocs(t *testing.T) {
	pl := NewPool()
	var pkts []*Packet
	var encs []func([]byte) []byte
	for _, v := range goldenVectors(t) {
		p := new(Packet)
		if err := p.Decode(v.frame); err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
		encs = append(encs, reencode(t, p))
	}
	cycle := func() {
		for i, p := range pkts {
			c, r := pl.Clone(p), pl.Rebuild(p, encs[i])
			pl.Put(c)
			pl.Put(r)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Fatalf("a primed pool allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestRebuildOutgrowsBuffer: an encoder that writes more than the buffer
// Rebuild sized for it (rushare's mux is longer than any of its sources)
// must cost neither the frame's bytes nor a pool buffer. Inside the jumbo
// class nothing grows at all; past it the packet adopts the grown array as
// a heap frame and the pool buffer goes back unused.
func TestRebuildOutgrowsBuffer(t *testing.T) {
	var p Packet
	if err := p.Decode(goldenVectors(t)[0].frame); err != nil {
		t.Fatal(err)
	}
	if len(p.Frame) > smallBuf {
		t.Fatalf("the C-plane vector is %d bytes: not a small frame", len(p.Frame))
	}
	grow := func(n int) func([]byte) []byte {
		return func(b []byte) []byte {
			b = append(b, p.App...)
			for i := 0; i < n; i++ {
				b = append(b, byte(i))
			}
			return b
		}
	}
	pl := NewPool()
	for _, tc := range []struct {
		extra  int
		pooled bool
	}{
		{4 * smallBuf, true}, // a small source, a jumbo message
		{2 * jumboBuf, false},
	} {
		enc := grow(tc.extra)
		got := pl.Rebuild(&p, enc)
		samePacket(t, "outgrown rebuild", got, Rebuild(&p, enc))
		if got.Pooled() != tc.pooled {
			t.Fatalf("+%d bytes: Pooled() = %v, want %v", tc.extra, got.Pooled(), tc.pooled)
		}
		if !tc.pooled && len(pl.jumbo) != 1 {
			t.Fatalf("+%d bytes: the outgrown pool buffer was not returned (%d free)", tc.extra, len(pl.jumbo))
		}
		frame := got.Frame
		pl.Put(got)
		if !tc.pooled && len(pl.jumbo) != 1 {
			t.Fatalf("+%d bytes: releasing a heap frame changed the free list (%d free)", tc.extra, len(pl.jumbo))
		}
		if tc.pooled && poison && frame[0] != poisonByte {
			t.Fatal("released pool buffer is not poisoned in a race build")
		}
	}
}

// TestPoolBoundsAndNil: the free lists are bounded, a foreign frame is not
// adopted, and a nil pool is the heap.
func TestPoolBoundsAndNil(t *testing.T) {
	pl := NewPool()
	for i := 0; i < poolPackets+10; i++ {
		pl.Put(new(Packet))
	}
	for i := 0; i < poolBufs+10; i++ {
		pl.PutFrame(make([]byte, 1, smallBuf))
		pl.PutFrame(make([]byte, 1, jumboBuf))
	}
	pl.PutFrame(make([]byte, 100))
	if len(pl.pkts) != poolPackets || len(pl.small) != poolBufs || len(pl.jumbo) != poolBufs {
		t.Fatalf("free lists hold %d/%d/%d, want %d/%d/%d", len(pl.pkts), len(pl.small), len(pl.jumbo), poolPackets, poolBufs, poolBufs)
	}
	var none *Pool
	p := none.Get()
	none.Put(p)
	none.PutFrame(make([]byte, 1, smallBuf))
	if p.free || p.Pooled() {
		t.Fatal("a nil pool kept a packet")
	}
}

// TestDoubleReleasePanicsUnderRace: the second release of a packet names
// its eAxC in a race build and is ignored otherwise.
func TestDoubleReleasePanicsUnderRace(t *testing.T) {
	var src Packet
	if err := src.Decode(goldenVectors(t)[0].frame); err != nil {
		t.Fatal(err)
	}
	pl := NewPool()
	p := pl.Clone(&src)
	pl.Put(p)
	defer func() {
		r := recover()
		if poison && r == nil {
			t.Fatal("second Put did not panic in a race build")
		}
		if !poison && r != nil {
			t.Fatalf("second Put panicked outside a race build: %v", r)
		}
		if msg, _ := r.(string); poison && !bytes.Contains([]byte(msg), []byte(src.Ecpri.PcID.String())) {
			t.Fatalf("panic %q does not name the packet's eAxC %s", msg, src.Ecpri.PcID)
		}
		if len(pl.pkts) != 1 {
			t.Fatalf("packet is on the free list %d times", len(pl.pkts))
		}
	}()
	pl.Put(p)
}
