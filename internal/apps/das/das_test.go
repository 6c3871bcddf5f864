package das

import (
	"bytes"
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

var (
	duMAC  = eth.MAC{2, 0, 0, 0, 0, 0x10}
	mbMAC  = eth.MAC{2, 0, 0, 0, 0, 0x11}
	ru1MAC = eth.MAC{2, 0, 0, 0, 0, 0x12}
	ru2MAC = eth.MAC{2, 0, 0, 0, 0, 0x13}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func newDAS(t *testing.T) (*sim.Scheduler, *core.Engine, *App, *[][]byte) {
	t.Helper()
	s := sim.NewScheduler()
	app := New(Config{Name: "das", MAC: mbMAC, DU: duMAC, RUs: []eth.MAC{ru1MAC, ru2MAC}, CarrierPRBs: 106})
	eng, err := core.NewEngine(s, core.Config{Name: "das", Mode: core.ModeDPDK, App: app, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	eng.SetOutput(fhtest.CopyTo(&out))
	return s, eng, app, &out
}

func uplink(t *testing.T, b *fh.Builder, grid iq.Grid, sym uint8) []byte {
	t.Helper()
	return uplinkAs(t, b, grid, sym, bfp9(), 0)
}

// uplinkAs builds a one-section uplink frame compressed under comp, with
// the last cut bytes of the section payload missing from the wire.
func uplinkAs(t *testing.T, b *fh.Builder, grid iq.Grid, sym uint8, comp bfp.Params, cut int) []byte {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, grid, comp)
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Uplink, FrameID: 2, SymbolID: sym},
		Sections: []oran.USection{{NumPRB: len(grid), Comp: comp, Payload: payload[:len(payload)-cut]}},
	}
	return b.UPlane(ecpri.PcID{RUPort: 0}, msg)
}

func TestDownlinkReplicatesToEveryRU(t *testing.T) {
	s, eng, _, out := newDAS(t)
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	msg := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: oran.Downlink},
		SectionType: oran.SectionType1,
		Sections:    []oran.CSection{{NumPRB: 106, NumSymbol: 14, ReMask: 0xfff}},
	}
	eng.Ingress(b.CPlane(ecpri.PcID{}, msg))
	s.Run()
	if len(*out) != 2 {
		t.Fatalf("replicas = %d", len(*out))
	}
	dsts := map[eth.MAC]bool{}
	for _, f := range *out {
		var p fh.Packet
		if err := p.Decode(f); err != nil {
			t.Fatal(err)
		}
		dsts[p.Eth.Dst] = true
		if p.Eth.Src != mbMAC {
			t.Fatalf("src = %v", p.Eth.Src)
		}
	}
	if !dsts[ru1MAC] || !dsts[ru2MAC] {
		t.Fatalf("destinations = %v", dsts)
	}
}

func TestUplinkMergeIsElementwiseSum(t *testing.T) {
	s, eng, app, out := newDAS(t)
	b1 := fh.NewBuilder(ru1MAC, mbMAC, -1)
	b2 := fh.NewBuilder(ru2MAC, mbMAC, -1)

	g1, g2 := iq.NewGrid(8), iq.NewGrid(8)
	for i := range g1 {
		for j := range g1[i] {
			g1[i][j] = iq.Sample{I: int16(100 + i), Q: int16(-j)}
			g2[i][j] = iq.Sample{I: int16(200), Q: int16(50 + j)}
		}
	}
	eng.Ingress(uplink(t, b1, g1, 4))
	if app.Merges.Load() != 0 {
		t.Fatal("merged before all RUs arrived")
	}
	eng.Ingress(uplink(t, b2, g2, 4))
	s.Run()
	if app.Merges.Load() != 1 {
		t.Fatalf("merges = %d", app.Merges.Load())
	}
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != duMAC {
		t.Fatalf("merged packet dst = %v", p.Eth.Dst)
	}
	var msg oran.UPlaneMsg
	if err := p.UPlane(&msg, 106); err != nil {
		t.Fatal(err)
	}
	got := iq.NewGrid(8)
	if _, err := bfp.DecompressGrid(msg.Sections[0].Payload, got, bfp9()); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j := range got[i] {
			want := iq.AddSat(g1[i][j], g2[i][j])
			// 9-bit BFP may quantize by one step at these magnitudes.
			if di := int(got[i][j].I) - int(want.I); di < -2 || di > 2 {
				t.Fatalf("PRB %d sample %d I = %d, want %d", i, j, got[i][j].I, want.I)
			}
		}
	}
}

// TestMergeSteadyStateAllocs pins the allocation budget of a full uplink
// combine cycle: two RU frames in, one merged frame out. The source list,
// re-encoded payloads and U-plane messages all come from the shard's
// pooled Transcoder, the emit is a closure-free scheduler frame event, and
// the per-frame fh.Packets, the rebuilt output frame and the cache entry
// are recycled through the worker's pool — nothing is left to allocate.
func TestMergeSteadyStateAllocs(t *testing.T) {
	s, eng, app, _ := newDAS(t)
	eng.SetOutput(func([]byte) {})
	b1 := fh.NewBuilder(ru1MAC, mbMAC, -1)
	b2 := fh.NewBuilder(ru2MAC, mbMAC, -1)
	g := iq.NewGrid(64)
	for i := range g {
		g[i][0] = iq.Sample{I: int16(i * 100), Q: int16(-i * 100)}
	}
	f1 := uplink(t, b1, g, 4)
	f2 := uplink(t, b2, g, 4)
	for i := 0; i < 64; i++ {
		eng.Ingress(f1)
		eng.Ingress(f2)
		s.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		eng.Ingress(f1)
		eng.Ingress(f2)
		s.Run()
	})
	if avg > 0 {
		t.Fatalf("merge cycle allocates %.1f objects, want 0", avg)
	}
	if app.Merges.Load() == 0 {
		t.Fatal("no merges happened")
	}
	t.Logf("merge cycle allocations: %.1f", avg)
}

// TestMergeMixedCompression pins the path where the RUs answer under
// different compression parameters: the merge decodes each source under its
// own udCompHdr, re-encodes under the first-arrived packet's, and emits
// exactly the bytes of decode → saturating add → encode.
func TestMergeMixedCompression(t *testing.T) {
	s, eng, app, out := newDAS(t)
	b1 := fh.NewBuilder(ru1MAC, mbMAC, -1)
	b2 := fh.NewBuilder(ru2MAC, mbMAC, -1)
	bfp14 := bfp.Params{IQWidth: 14, Method: bfp.MethodBlockFloatingPoint}
	g1, g2 := iq.NewGrid(8), iq.NewGrid(8)
	for i := range g1 {
		for j := range g1[i] {
			g1[i][j] = iq.Sample{I: int16(3000*i + 17*j), Q: int16(-2500*i - j)}
			g2[i][j] = iq.Sample{I: int16(1500*i + j), Q: int16(-2200*i - 9*j)} // Q saturates in the last PRB
		}
	}
	eng.Ingress(uplinkAs(t, b1, g1, 4, bfp9(), 0))
	eng.Ingress(uplinkAs(t, b2, g2, 4, bfp14, 0))
	s.Run()
	if app.Merges.Load() != 1 || len(*out) != 1 {
		t.Fatalf("merges = %d, out = %d", app.Merges.Load(), len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	var msg oran.UPlaneMsg
	if err := p.UPlane(&msg, 106); err != nil {
		t.Fatal(err)
	}
	if msg.Sections[0].Comp != bfp9() {
		t.Fatalf("merged section compression = %+v, want the first packet's", msg.Sections[0].Comp)
	}
	// The reference: what each RU's wire bytes decode to, summed, re-encoded.
	w1, _ := bfp.CompressGrid(nil, g1, bfp9())
	w2, _ := bfp.CompressGrid(nil, g2, bfp14)
	acc, other := iq.NewGrid(8), iq.NewGrid(8)
	if _, err := bfp.DecompressGrid(w1, acc, bfp9()); err != nil {
		t.Fatal(err)
	}
	if _, err := bfp.DecompressGrid(w2, other, bfp14); err != nil {
		t.Fatal(err)
	}
	acc.AddSat(other)
	want, err := bfp.CompressGrid(nil, acc, bfp9())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Sections[0].Payload, want) {
		t.Fatalf("merged payload differs from decode → add → encode:\n got  %x\n want %x", msg.Sections[0].Payload, want)
	}
}

// TestMergeTruncatedSectionFails: a section whose payload is one byte short
// of what its header promises fails the merge of that symbol — counted as
// an app error, nothing emitted — and the next symbol merges normally.
func TestMergeTruncatedSectionFails(t *testing.T) {
	s, eng, app, out := newDAS(t)
	b1 := fh.NewBuilder(ru1MAC, mbMAC, -1)
	b2 := fh.NewBuilder(ru2MAC, mbMAC, -1)
	g := iq.NewGrid(8)
	for i := range g {
		g[i][0] = iq.Sample{I: int16(i * 900), Q: int16(-i * 900)}
	}
	eng.Ingress(uplink(t, b1, g, 4))
	eng.Ingress(uplinkAs(t, b2, g, 4, bfp9(), 1))
	s.Run()
	if app.Merges.Load() != 0 || len(*out) != 0 {
		t.Fatalf("truncated section merged: merges = %d, out = %d", app.Merges.Load(), len(*out))
	}
	if st := eng.Snapshot(); st.AppErrors != 1 {
		t.Fatalf("AppErrors = %d, want 1", st.AppErrors)
	}
	eng.Ingress(uplink(t, b1, g, 5))
	eng.Ingress(uplink(t, b2, g, 5))
	s.Run()
	if app.Merges.Load() != 1 || len(*out) != 1 {
		t.Fatalf("after the bad symbol: merges = %d, out = %d", app.Merges.Load(), len(*out))
	}
}

func TestDifferentSymbolsDoNotMerge(t *testing.T) {
	s, eng, app, _ := newDAS(t)
	b1 := fh.NewBuilder(ru1MAC, mbMAC, -1)
	b2 := fh.NewBuilder(ru2MAC, mbMAC, -1)
	eng.Ingress(uplink(t, b1, iq.NewGrid(4), 4))
	eng.Ingress(uplink(t, b2, iq.NewGrid(4), 5)) // other symbol
	s.Run()
	if app.Merges.Load() != 0 {
		t.Fatalf("merged across symbols: %d", app.Merges.Load())
	}
}

func TestUnknownSourceDropped(t *testing.T) {
	s, eng, _, out := newDAS(t)
	stranger := fh.NewBuilder(eth.MAC{9, 9, 9, 9, 9, 9}, mbMAC, -1)
	eng.Ingress(uplink(t, stranger, iq.NewGrid(4), 4))
	s.Run()
	if len(*out) != 0 {
		t.Fatal("stranger traffic forwarded")
	}
	if eng.Snapshot().AppDrops != 1 {
		t.Fatalf("drops = %d", eng.Snapshot().AppDrops)
	}
}

// TestDownlinkWithNoRUs is the regression test for the datapath panic after
// Control removed the last RU: a DU frame with nowhere to go is dropped,
// and replication resumes when an RU is added back.
func TestDownlinkWithNoRUs(t *testing.T) {
	s, eng, app, out := newDAS(t)
	for _, m := range []eth.MAC{ru1MAC, ru2MAC} {
		if err := app.Control("remove-ru", map[string]string{"mac": m.String()}); err != nil {
			t.Fatal(err)
		}
	}
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	msg := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: oran.Downlink},
		SectionType: oran.SectionType1,
		Sections:    []oran.CSection{{NumPRB: 106, NumSymbol: 14, ReMask: 0xfff}},
	}
	eng.Ingress(b.CPlane(ecpri.PcID{}, msg))
	s.Run()
	if len(*out) != 0 {
		t.Fatalf("forwarded %d frames with no RU configured", len(*out))
	}
	if drops := eng.Snapshot().AppDrops; drops != 1 {
		t.Fatalf("AppDrops = %d, want 1", drops)
	}
	if err := app.Control("add-ru", map[string]string{"mac": ru2MAC.String()}); err != nil {
		t.Fatal(err)
	}
	eng.Ingress(b.CPlane(ecpri.PcID{}, msg))
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("after re-adding an RU: %d frames out, want 1", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ru2MAC {
		t.Fatalf("frame went to %v, want the re-added RU", p.Eth.Dst)
	}
}

func TestControlAddRemoveRU(t *testing.T) {
	_, _, app, _ := newDAS(t)
	if err := app.Control("add-ru", map[string]string{"mac": "02:00:00:00:00:14"}); err != nil {
		t.Fatal(err)
	}
	if len(app.cfg.RUs) != 3 {
		t.Fatalf("RUs = %d", len(app.cfg.RUs))
	}
	if err := app.Control("remove-ru", map[string]string{"mac": "02:00:00:00:00:14"}); err != nil {
		t.Fatal(err)
	}
	if len(app.cfg.RUs) != 2 {
		t.Fatalf("RUs = %d after remove", len(app.cfg.RUs))
	}
	if err := app.Control("bogus", map[string]string{"mac": "02:00:00:00:00:14"}); err == nil {
		t.Fatal("bogus command accepted")
	}
	if err := app.Control("add-ru", map[string]string{"mac": "zz"}); err == nil {
		t.Fatal("bad mac accepted")
	}
}
