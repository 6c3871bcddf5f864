package fhguard

import (
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

var (
	duMAC    = eth.MAC{2, 0, 0, 0, 0, 0x70}
	mbMAC    = eth.MAC{2, 0, 0, 0, 0, 0x71}
	ruMAC    = eth.MAC{2, 0, 0, 0, 0, 0x72}
	evilMAC  = eth.MAC{6, 6, 6, 6, 6, 6}
	carriers = 106
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func newGuard(t *testing.T) (*sim.Scheduler, *core.Engine, *App, *[][]byte) {
	t.Helper()
	app := New(Config{Name: "guard", MAC: mbMAC, DU: duMAC, RU: ruMAC})
	s := sim.NewScheduler()
	eng, err := core.NewEngine(s, core.Config{Name: "guard", Mode: core.ModeDPDK, App: app, CarrierPRBs: carriers})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	eng.SetOutput(fhtest.CopyTo(&out))
	return s, eng, app, &out
}

func uFrame(b *fh.Builder, dir oran.Direction) []byte {
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: dir, SymbolID: 3},
		Sections: []oran.USection{{NumPRB: 2, Comp: bfp9(), Payload: make([]byte, 2*28)}},
	}
	return b.UPlane(ecpri.PcID{RUPort: 0}, msg)
}

func cFrame(b *fh.Builder, dir oran.Direction) []byte {
	msg := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: dir},
		SectionType: oran.SectionType1,
		Sections:    []oran.CSection{{NumPRB: 2, ReMask: 0xfff, NumSymbol: 1}},
	}
	return b.CPlane(ecpri.PcID{RUPort: 0}, msg)
}

func TestGuardPaths(t *testing.T) {
	s, eng, app, out := newGuard(t)
	bDU := fh.NewBuilder(duMAC, mbMAC, -1)
	bRU := fh.NewBuilder(ruMAC, mbMAC, -1)
	bEvil := fh.NewBuilder(evilMAC, mbMAC, -1)

	// Legitimate DU C+U and RU U traffic flows, re-addressed.
	eng.Ingress(cFrame(bDU, oran.Downlink))
	eng.Ingress(uFrame(bDU, oran.Downlink))
	eng.Ingress(uFrame(bRU, oran.Uplink))
	s.Run()
	if len(*out) != 3 || app.Stats().Forwarded != 3 {
		t.Fatalf("forwarded=%d out=%d", app.Stats().Forwarded, len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ruMAC {
		t.Fatalf("DU traffic forwarded to %v", p.Eth.Dst)
	}

	// Unknown source: dropped and counted.
	n := len(*out)
	eng.Ingress(uFrame(bEvil, oran.Downlink))
	s.Run()
	if len(*out) != n || app.Stats().UnknownSource != 1 {
		t.Fatalf("spoofed frame not dropped: %+v", app.Stats())
	}

	// C-plane from the RU side: injection, dropped.
	eng.Ingress(cFrame(bRU, oran.Uplink))
	s.Run()
	if app.Stats().RogueCPlane != 1 {
		t.Fatalf("rogue C-plane not flagged: %+v", app.Stats())
	}
}

func TestReplayDetection(t *testing.T) {
	s, eng, app, out := newGuard(t)
	bDU := fh.NewBuilder(duMAC, mbMAC, -1)
	// Record a legitimate frame, then replay the exact bytes.
	legit := uFrame(bDU, oran.Downlink)
	replay := append([]byte(nil), legit...)
	eng.Ingress(legit)
	s.Run()
	n := len(*out)
	eng.Ingress(replay)
	s.Run()
	if len(*out) != n {
		t.Fatal("replayed frame forwarded")
	}
	if app.Stats().Replays != 1 {
		t.Fatalf("replays = %d", app.Stats().Replays)
	}
	// Fresh sequence numbers keep flowing.
	eng.Ingress(uFrame(bDU, oran.Downlink))
	s.Run()
	if len(*out) != n+1 {
		t.Fatal("fresh frame blocked after a replay")
	}
}

func TestReorderingTolerated(t *testing.T) {
	s, eng, app, out := newGuard(t)
	bDU := fh.NewBuilder(duMAC, mbMAC, -1)
	f1 := uFrame(bDU, oran.Downlink) // seq 0
	f2 := uFrame(bDU, oran.Downlink) // seq 1
	f3 := uFrame(bDU, oran.Downlink) // seq 2
	eng.Ingress(f1)
	eng.Ingress(f3) // seq 2 arrives before seq 1
	eng.Ingress(f2) // one step back: tolerated reordering
	s.Run()
	if app.Stats().Replays != 0 {
		t.Fatalf("reordering counted as replay: %+v", app.Stats())
	}
	if len(*out) != 3 {
		t.Fatalf("out = %d", len(*out))
	}
}
