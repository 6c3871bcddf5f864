package rushare

import (
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

var (
	duA   = eth.MAC{2, 0, 0, 0, 0, 0x30}
	duB   = eth.MAC{2, 0, 0, 0, 0, 0x31}
	mbMAC = eth.MAC{2, 0, 0, 0, 0, 0x32}
	ruMAC = eth.MAC{2, 0, 0, 0, 0, 0x33}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

// fixture: 100 MHz RU shared by two aligned 40 MHz DUs (A at PRB 0, B at
// PRB 167).
func fixture(t *testing.T, aligned bool) (*sim.Scheduler, *core.Engine, *App, *[][]byte, phy.Carrier, phy.Carrier, phy.Carrier) {
	t.Helper()
	ru := phy.NewCarrier(100, 3_460_000_000)
	duPRBs := phy.PRBsFor(40)
	cA := phy.AlignedDUCenterHz(ru, 0, duPRBs)
	cB := phy.AlignedDUCenterHz(ru, ru.NumPRB-duPRBs, duPRBs)
	if !aligned {
		cA += phy.SCS / 2
		cB += phy.SCS / 2
	}
	carA := phy.Carrier{BandwidthMHz: 40, CenterHz: cA, NumPRB: duPRBs}
	carB := phy.Carrier{BandwidthMHz: 40, CenterHz: cB, NumPRB: duPRBs}
	app, err := New(Config{
		Name: "sh", MAC: mbMAC, RU: ruMAC, RUCarrier: ru, Comp: bfp9(),
		DUs: []DUInfo{
			{MAC: duA, Carrier: carA, PortID: 1},
			{MAC: duB, Carrier: carB, PortID: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler()
	eng, err := core.NewEngine(s, core.Config{Name: "sh", Mode: core.ModeDPDK, App: app, CarrierPRBs: ru.NumPRB})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	eng.SetOutput(fhtest.CopyTo(&out))
	return s, eng, app, &out, ru, carA, carB
}

func TestNewRejectsOutOfSpectrumTenant(t *testing.T) {
	ru := phy.NewCarrier(40, 3_460_000_000)
	big := phy.NewCarrier(100, 3_460_000_000)
	_, err := New(Config{
		Name: "bad", MAC: mbMAC, RU: ruMAC, RUCarrier: ru, Comp: bfp9(),
		DUs: []DUInfo{{MAC: duA, Carrier: big, PortID: 1}},
	})
	if err == nil {
		t.Fatal("tenant wider than the RU accepted")
	}
}

func cplane(b *fh.Builder, dir oran.Direction, numPRB int, sym uint8) []byte {
	msg := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: dir, FrameID: 3, SymbolID: sym},
		SectionType: oran.SectionType1,
		Comp:        bfp9(),
		Sections:    []oran.CSection{{SectionID: 1, StartPRB: 0, NumPRB: numPRB, ReMask: 0xfff, NumSymbol: 1}},
	}
	return b.CPlane(ecpri.PcID{RUPort: 0}, msg)
}

func uplane(t *testing.T, b *fh.Builder, dir oran.Direction, startPRB, numPRB int, sym uint8, amp int16) []byte {
	t.Helper()
	g := iq.NewGrid(numPRB)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{I: amp, Q: -amp / 2}
		}
	}
	payload, err := bfp.CompressGrid(nil, g, bfp9())
	if err != nil {
		t.Fatal(err)
	}
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: dir, FrameID: 3, SymbolID: sym},
		Sections: []oran.USection{{StartPRB: startPRB, NumPRB: numPRB, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: 0}, msg)
}

func TestFirstCPlaneWidenedAndForwarded(t *testing.T) {
	s, eng, _, out, ru, _, _ := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	eng.Ingress(cplane(bA, oran.Downlink, 106, 0))
	eng.Ingress(cplane(bB, oran.Downlink, 106, 0)) // second: cached only
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("forwarded %d C-planes, want 1 (Algorithm 2 line 4)", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ruMAC {
		t.Fatalf("dst = %v", p.Eth.Dst)
	}
	var msg oran.CPlaneMsg
	if err := p.CPlane(&msg, ru.NumPRB); err != nil {
		t.Fatal(err)
	}
	if msg.Sections[0].StartPRB != 0 || msg.Sections[0].NumPRB != ru.NumPRB {
		t.Fatalf("not widened: %+v", msg.Sections[0])
	}
}

func TestDownlinkMuxPlacesPRBsAtRUPositions(t *testing.T) {
	s, eng, app, out, ru, _, _ := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	// Both DUs request, then both deliver IQ for symbol 2.
	eng.Ingress(cplane(bA, oran.Downlink, 106, 2))
	eng.Ingress(cplane(bB, oran.Downlink, 106, 2))
	eng.Ingress(uplane(t, bA, oran.Downlink, 10, 4, 2, 8000))
	eng.Ingress(uplane(t, bB, oran.Downlink, 20, 4, 2, 9000))
	s.Run()
	if app.Muxed.Load() != 1 {
		t.Fatalf("muxed = %d", app.Muxed.Load())
	}
	// Last emission is the merged U-plane.
	var p fh.Packet
	if err := p.Decode((*out)[len(*out)-1]); err != nil {
		t.Fatal(err)
	}
	var msg oran.UPlaneMsg
	if err := p.UPlane(&msg, ru.NumPRB); err != nil {
		t.Fatal(err)
	}
	if len(msg.Sections) != 2 {
		t.Fatalf("sections = %d", len(msg.Sections))
	}
	starts := map[int]bool{}
	for _, sec := range msg.Sections {
		starts[sec.StartPRB] = true
	}
	// DU A offset 0 (PRB 10 stays 10); DU B offset 167 (PRB 20 -> 187).
	if !starts[10] || !starts[187] {
		t.Fatalf("section positions = %v, want {10, 187}", starts)
	}
	if p.EAxC().BandSector != 0 {
		t.Fatalf("combined stream should clear BandSector, got %d", p.EAxC().BandSector)
	}
}

func TestMuxWaitsForAllRequesters(t *testing.T) {
	s, eng, app, _, _, _, _ := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	eng.Ingress(cplane(bA, oran.Downlink, 106, 2))
	eng.Ingress(cplane(bB, oran.Downlink, 106, 2))
	eng.Ingress(uplane(t, bA, oran.Downlink, 10, 4, 2, 8000))
	s.Run()
	if app.Muxed.Load() != 0 {
		t.Fatal("muxed before DU B delivered")
	}
}

func TestSilentTenantIsNotAwaited(t *testing.T) {
	s, eng, app, _, _, _, _ := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	// Only DU A requests this symbol; its U-plane must flow immediately.
	eng.Ingress(cplane(bA, oran.Downlink, 106, 2))
	eng.Ingress(uplane(t, bA, oran.Downlink, 10, 4, 2, 8000))
	s.Run()
	if app.Muxed.Load() != 1 {
		t.Fatalf("muxed = %d (silent tenant must not block)", app.Muxed.Load())
	}
}

func TestUplinkDemuxCarvesPerTenant(t *testing.T) {
	s, eng, app, out, ru, carA, carB := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	bRU := fh.NewBuilder(ruMAC, mbMAC, -1)
	// Both DUs request uplink symbol 12.
	eng.Ingress(cplane(bA, oran.Uplink, 106, 12))
	eng.Ingress(cplane(bB, oran.Uplink, 106, 12))
	// RU returns the full 273-PRB spectrum.
	eng.Ingress(uplane(t, bRU, oran.Uplink, 0, ru.NumPRB, 12, 5000))
	s.Run()
	if app.Demuxed.Load() != 2 {
		t.Fatalf("demuxed = %d", app.Demuxed.Load())
	}
	got := map[eth.MAC]*oran.UPlaneMsg{}
	for _, f := range *out {
		var p fh.Packet
		if err := p.Decode(f); err != nil {
			t.Fatal(err)
		}
		if p.Plane() != fh.PlaneU {
			continue
		}
		tm, _ := p.Timing()
		if tm.Direction != oran.Uplink {
			continue
		}
		var msg oran.UPlaneMsg
		// Replica sections are re-based onto the DU grid.
		if err := p.UPlane(&msg, carA.NumPRB); err != nil {
			t.Fatal(err)
		}
		cp := msg
		got[p.Eth.Dst] = &cp
	}
	for _, mac := range []eth.MAC{duA, duB} {
		msg := got[mac]
		if msg == nil {
			t.Fatalf("no uplink replica for %v", mac)
		}
		if msg.Sections[0].StartPRB != 0 || msg.Sections[0].NumPRB != carA.NumPRB {
			t.Fatalf("%v: section %+v, want full re-based 40 MHz", mac, msg.Sections[0])
		}
	}
	_ = carB
}

// TestMuxDemuxSteadyStateAllocs pins the allocation budget of one full
// sharing cycle on the misaligned (transcoding) path: both DUs deliver
// downlink IQ that is muxed onto the RU grid, and the RU's uplink spectrum
// is carved back per tenant. The C-plane requests are slot-scoped and
// cached once up front; every per-cycle source list, re-encoded payload
// and staging message comes from the shard's pooled Transcoder, the three
// emits are closure-free scheduler frame events, and packets, replicas,
// rebuilt frames and cache entries are recycled through the worker's pool
// — nothing is left to allocate.
func TestMuxDemuxSteadyStateAllocs(t *testing.T) {
	s, eng, app, _, ru, _, _ := fixture(t, false)
	eng.SetOutput(func([]byte) {})
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	bRU := fh.NewBuilder(ruMAC, mbMAC, -1)
	eng.Ingress(cplane(bA, oran.Downlink, 106, 2))
	eng.Ingress(cplane(bB, oran.Downlink, 106, 2))
	eng.Ingress(cplane(bA, oran.Uplink, 106, 12))
	eng.Ingress(cplane(bB, oran.Uplink, 106, 12))
	s.Run()
	upA := uplane(t, bA, oran.Downlink, 10, 16, 2, 8000)
	upB := uplane(t, bB, oran.Downlink, 20, 16, 2, 9000)
	upRU := uplane(t, bRU, oran.Uplink, 0, ru.NumPRB, 12, 5000)
	cycle := func() {
		eng.Ingress(upA)
		eng.Ingress(upB)
		eng.Ingress(upRU)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	muxed, demuxed := app.Muxed.Load(), app.Demuxed.Load()
	avg := testing.AllocsPerRun(200, cycle)
	if app.Muxed.Load() == muxed || app.Demuxed.Load() == demuxed {
		t.Fatal("cycle stopped muxing/demuxing")
	}
	if avg > 0 {
		t.Fatalf("sharing cycle allocates %.1f objects, want 0", avg)
	}
	t.Logf("sharing cycle allocations: %.1f", avg)
}

func TestPRACHMuxTranslatesFreqOffsets(t *testing.T) {
	s, eng, app, out, ru, carA, carB := fixture(t, true)
	bA := fh.NewBuilder(duA, mbMAC, -1)
	bB := fh.NewBuilder(duB, mbMAC, -1)
	prach := func(b *fh.Builder, car phy.Carrier) []byte {
		msg := &oran.CPlaneMsg{
			Timing:      oran.Timing{Direction: oran.Uplink, FilterIndex: 1, FrameID: 3, SymbolID: 0},
			SectionType: oran.SectionType3,
			Comp:        bfp9(),
			Sections: []oran.CSection{{
				SectionID: 7, StartPRB: 2, NumPRB: 12, ReMask: 0xfff, NumSymbol: 2,
				FreqOffset: phy.FreqOffsetForPRB(car, 2),
			}},
		}
		return b.CPlane(ecpri.PcID{RUPort: 0}, msg)
	}
	eng.Ingress(prach(bA, carA))
	eng.Ingress(prach(bB, carB))
	s.Run()
	if app.PRACHMuxed.Load() != 1 {
		t.Fatalf("prach muxed = %d", app.PRACHMuxed.Load())
	}
	var p fh.Packet
	if err := p.Decode((*out)[len(*out)-1]); err != nil {
		t.Fatal(err)
	}
	var msg oran.CPlaneMsg
	if err := p.CPlane(&msg, ru.NumPRB); err != nil {
		t.Fatal(err)
	}
	if len(msg.Sections) != 2 {
		t.Fatalf("merged sections = %d (Algorithm 3 line 5)", len(msg.Sections))
	}
	for _, sec := range msg.Sections {
		var car phy.Carrier
		switch sec.SectionID {
		case 1:
			car = carA
		case 2:
			car = carB
		default:
			t.Fatalf("section id %d, want the DU ids", sec.SectionID)
		}
		// The translated offset must point at the same physical frequency
		// the DU requested (the eq. 11 correctness condition).
		if got := phy.PRBForFreqOffset(ru, sec.FreqOffset); got != offsetOf(ru, car)+2 {
			t.Fatalf("section %d points at RU PRB %d", sec.SectionID, got)
		}
	}
}

func offsetOf(ru, du phy.Carrier) int {
	off, _ := phy.PRBOffset(ru, du)
	return off
}

func TestPRACHDemuxBySectionID(t *testing.T) {
	s, eng, _, out, ru, _, _ := fixture(t, true)
	bRU := fh.NewBuilder(ruMAC, mbMAC, -1)
	msg := &oran.UPlaneMsg{
		Timing: oran.Timing{Direction: oran.Uplink, FilterIndex: 1, FrameID: 3, SymbolID: 0},
		Sections: []oran.USection{
			{SectionID: 1, StartPRB: 2, NumPRB: 12, Comp: bfp9(), Payload: make([]byte, 12*28)},
			{SectionID: 2, StartPRB: 169, NumPRB: 12, Comp: bfp9(), Payload: make([]byte, 12*28)},
		},
	}
	eng.Ingress(bRU.UPlane(ecpri.PcID{RUPort: 0}, msg))
	s.Run()
	byDst := map[eth.MAC]uint16{}
	for _, f := range *out {
		var p fh.Packet
		if err := p.Decode(f); err != nil {
			t.Fatal(err)
		}
		var m oran.UPlaneMsg
		if err := p.UPlane(&m, ru.NumPRB); err != nil {
			t.Fatal(err)
		}
		if len(m.Sections) != 1 {
			t.Fatalf("replica carries %d sections", len(m.Sections))
		}
		byDst[p.Eth.Dst] = m.Sections[0].SectionID
	}
	if byDst[duA] != 1 || byDst[duB] != 2 {
		t.Fatalf("demux = %v", byDst)
	}
}

func TestMisalignedPathTranscodes(t *testing.T) {
	s, eng, app, _, _, _, _ := fixture(t, false)
	if app.Aligned(0) || app.Aligned(1) {
		t.Fatal("fixture should be misaligned")
	}
	bA := fh.NewBuilder(duA, mbMAC, -1)
	eng.Ingress(cplane(bA, oran.Downlink, 106, 2))
	eng.Ingress(uplane(t, bA, oran.Downlink, 10, 4, 2, 8000))
	s.Run()
	if app.Recompress.Load() == 0 || app.AlignedCopies.Load() != 0 {
		t.Fatalf("fast=%d transcode=%d", app.AlignedCopies.Load(), app.Recompress.Load())
	}
}
