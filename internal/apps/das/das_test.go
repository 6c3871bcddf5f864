package das

import (
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
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
	eng.SetOutput(func(f []byte) { out = append(out, f) })
	return s, eng, app, &out
}

func uplink(t *testing.T, b *fh.Builder, grid iq.Grid, sym uint8) []byte {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, grid, bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: oran.Uplink, FrameID: 2, SymbolID: sym},
		Sections: []oran.USection{{NumPRB: len(grid), Comp: bfp9(), Payload: payload}},
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
// combine cycle: two RU frames in, one merged frame out. The decode grids,
// re-encoded payloads and U-plane messages all come from the shard's
// pooled Transcoder and the emit is a closure-free scheduler frame event,
// so the only allocations left are the per-frame fh.Packet copies, the
// cache entries and the rebuilt output frame — none of them proportional
// to the carrier.
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
	const budget = 7 // measured 7: fixed per-cycle overhead; the transcode and the emit are alloc-free
	if avg > budget {
		t.Fatalf("merge cycle allocates %.1f objects, budget %d", avg, budget)
	}
	if app.Merges.Load() == 0 {
		t.Fatal("no merges happened")
	}
	t.Logf("merge cycle allocations: %.1f", avg)
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
