package fh

import (
	"bytes"
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
)

// fuzzCarrierPRBs matches the 100 MHz carrier the testbed runs: it makes
// the "all PRBs" wire encoding (numPrb == 0) take the >255 branch.
const fuzzCarrierPRBs = 273

// fuzzSeedFrames builds well-formed frames of every flavor the builder can
// produce, so the fuzzer starts from deep inside the grammar instead of
// having to discover the Ethernet/eCPRI framing byte by byte.
func fuzzSeedFrames() [][]byte {
	src := eth.MAC{0x02, 0, 0, 0, 0, 0x01}
	dst := eth.MAC{0x02, 0, 0, 0, 0, 0x02}
	pc := ecpri.PcID{DUPort: 0, BandSector: 1, CC: 0, RUPort: 2}

	var frames [][]byte
	for _, vlan := range []int{-1, 6} {
		b := NewBuilder(src, dst, vlan)
		frames = append(frames, b.CPlane(pc, &oran.CPlaneMsg{
			Timing:      oran.Timing{Direction: oran.Downlink, PayloadVersion: 1, FrameID: 63, SubframeID: 2, SlotID: 1},
			SectionType: oran.SectionType1,
			Comp:        bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint},
			Sections: []oran.CSection{
				{SectionID: 1, NumPRB: 64, ReMask: 0xfff, NumSymbol: 14, BeamID: 7},
				{SectionID: 2, StartPRB: 64, NumPRB: fuzzCarrierPRBs - 64, ReMask: 0xfff, NumSymbol: 14},
			},
		}))
		frames = append(frames, b.CPlane(pc, &oran.CPlaneMsg{
			Timing:      oran.Timing{Direction: oran.Uplink, PayloadVersion: 1, FilterIndex: 1, FrameID: 9},
			SectionType: oran.SectionType3,
			TimeOffset:  100, FrameStructure: 0x41, CPLength: 20,
			Comp: bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint},
			Sections: []oran.CSection{
				{SectionID: 3, StartPRB: 10, NumPRB: 12, ReMask: 0xfff, NumSymbol: 1, FreqOffset: -3276},
			},
		}))
		for i, comp := range []bfp.Params{
			{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint},
			{Method: bfp.MethodNone},
		} {
			// 4 PRBs of BFP-9 make a frame of the pool's small class, 20
			// uncompressed ones a frame of the jumbo class.
			grid := iq.NewGrid(4 + 16*i)
			for p := range grid {
				for k := range grid[p] {
					grid[p][k].I = int16(p*256 + k*16)
					grid[p][k].Q = int16(-(p*128 + k*8))
				}
			}
			payload, err := bfp.CompressGrid(nil, grid, comp)
			if err != nil {
				panic(err)
			}
			frames = append(frames, b.UPlane(pc, &oran.UPlaneMsg{
				Timing: oran.Timing{Direction: oran.Uplink, PayloadVersion: 1, FrameID: 5, SlotID: 3, SymbolID: 7},
				Sections: []oran.USection{
					{SectionID: 1, StartPRB: 8, NumPRB: len(grid), Comp: comp, Payload: payload},
				},
			}))
		}
	}
	return frames
}

// FuzzDissect throws arbitrary bytes at the full receive path: the
// dissector, the lazy Packet decode and every accessor a middlebox calls.
// Malformed input must come back as an error (or an "undecodable" render),
// never a panic or out-of-range access.
func FuzzDissect(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated mid-message
	}
	f.Add([]byte{})
	// One pool for the whole run (per worker process), and a decodable
	// frame of either size class to alternate with the input.
	pool := NewPool()
	var small, jumbo Packet
	for _, frame := range fuzzSeedFrames() {
		which := &jumbo
		if len(frame) <= smallBuf {
			which = &small
		}
		if err := which.Decode(frame); err != nil {
			f.Fatal(err)
		}
	}
	if small.Frame == nil || jumbo.Frame == nil {
		f.Fatal("the seed frames do not cover both pool size classes")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out := Dissect(data, fuzzCarrierPRBs); out == "" {
			t.Fatal("Dissect returned empty output")
		}
		var p Packet
		if err := p.Decode(data); err != nil {
			return
		}
		// The NIC-style peeks must agree with the full decode whenever the
		// full decode succeeds: RSS steering and shed policy rely on it.
		if eaxc, ok := PeekEAxC(data); !ok || eaxc != p.Ecpri.PcID.Uint16() {
			t.Fatalf("PeekEAxC = (%#x, %v), decode says %#x", eaxc, ok, p.Ecpri.PcID.Uint16())
		}
		pl, prach := PeekShedClass(data)
		if pl != p.Plane() {
			t.Fatalf("PeekShedClass plane = %v, decode says %v", pl, p.Plane())
		}
		// PRACH is "U-plane with filter index 1". A timing header too short
		// to decode has no filter index to compare with (the engine drops
		// such a frame as invalid whichever class it was admitted under).
		tm, err := p.Timing()
		if want := pl == PlaneU && tm.FilterIndex == 1; prach != want && (err == nil || pl != PlaneU) {
			t.Fatalf("PeekShedClass prach = %v on %v, decode says filter index %d (%v)", prach, pl, tm.FilterIndex, err)
		}
		_, _ = KeyOf(&p)
		_ = p.String()
		switch p.Plane() {
		case PlaneU:
			var msg oran.UPlaneMsg
			_ = p.UPlane(&msg, fuzzCarrierPRBs)
		case PlaneC:
			var msg oran.CPlaneMsg
			_ = p.CPlane(&msg, fuzzCarrierPRBs)
		}
		// A decodable packet must survive the A2 replication primitive, on
		// the heap and through a pool whose packet and buffers have been
		// round a frame of the other size class since.
		cp := p.Clone()
		if !bytes.Equal(cp.Frame, p.Frame) {
			t.Fatal("Clone changed frame bytes")
		}
		pooled := pool.Clone(&p)
		if !bytes.Equal(pooled.Frame, p.Frame) || pooled.Eth != cp.Eth || pooled.Ecpri != cp.Ecpri || !bytes.Equal(pooled.App, cp.App) {
			t.Fatal("Pool.Clone differs from Clone")
		}
		pool.Put(pooled)
		other := &small
		if len(p.Frame) <= smallBuf {
			other = &jumbo
		}
		oc := pool.Clone(other)
		if !bytes.Equal(oc.Frame, other.Frame) {
			t.Fatal("Pool.Clone of the other size class changed frame bytes")
		}
		again := pool.Clone(&p)
		if !bytes.Equal(again.Frame, p.Frame) || !bytes.Equal(oc.Frame, other.Frame) {
			t.Fatal("two live pool clones share bytes")
		}
		pool.Put(oc)
		pool.Put(again)
	})
}
