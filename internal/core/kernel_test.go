package core

import (
	"testing"
	"time"

	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

func dirPtr(d oran.Direction) *oran.Direction { return &d }
func u8Ptr(v uint8) *uint8                    { return &v }

func newXDP(t *testing.T, prog *KernelProgram, app App) (*sim.Scheduler, *Engine, *[][]byte) {
	t.Helper()
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "xdp", Mode: ModeXDP, Kernel: prog, App: app, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	e.SetOutput(fhtest.CopyTo(&out))
	return s, e, &out
}

func TestVerifierRejects(t *testing.T) {
	cases := []struct {
		name string
		prog KernelProgram
	}{
		{"empty", KernelProgram{}},
		{"too many rules", KernelProgram{Rules: make([]Rule, MaxKernelRules+1)}},
		{"tx without rewrite", KernelProgram{Rules: []Rule{{Verdict: VerdictTx}}}},
		{"rewrite on drop", KernelProgram{Rules: []Rule{{Verdict: VerdictDrop, Rewrite: &Rewrite{}}}}},
		{"exponents on cplane", KernelProgram{Rules: []Rule{{
			Match: Match{Plane: fh.PlaneC}, Verdict: VerdictPass, Exponents: &ExponentStats{},
		}}}},
		{"vlan out of range", KernelProgram{Rules: []Rule{{
			Verdict: VerdictTx, Rewrite: &Rewrite{SetVLAN: u16Ptr(5000)},
		}}}},
		{"too many mirrors", KernelProgram{Rules: []Rule{{
			Verdict: VerdictTx, Mirrors: make([]Rewrite, MaxKernelMirrors+1),
		}}}},
	}
	for _, c := range cases {
		// Fill dummy rules (zero rule = pass-any) so only the property
		// under test is invalid.
		for i := range c.prog.Rules {
			if c.prog.Rules[i].Verdict == VerdictTx && c.prog.Rules[i].Rewrite == nil && len(c.prog.Rules[i].Mirrors) == 0 && c.name != "tx without rewrite" {
				c.prog.Rules[i].Rewrite = &Rewrite{}
			}
		}
		if err := c.prog.Verify(); err == nil {
			t.Errorf("%s: verified", c.name)
		}
	}
}

func u16Ptr(v uint16) *uint16 { return &v }

func TestVerifierAccepts(t *testing.T) {
	prog := &KernelProgram{Rules: []Rule{
		{
			Match:   Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink), RUPorts: &Range{2, 3}},
			Verdict: VerdictTx,
			Rewrite: &Rewrite{SetDst: &ru2MAC, RUPortMap: IdentityPortMap()},
		},
		{Match: Match{Plane: fh.PlaneU}, Verdict: VerdictPass, Exponents: &ExponentStats{ThrUL: 2}},
	}}
	if err := prog.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTxPortRemap(t *testing.T) {
	// The dMIMO downlink kernel rule: DU ports 2,3 are remapped to 0,1 and
	// steered to RU2 — entirely in kernel (Table 1).
	pm := IdentityPortMap()
	pm[2], pm[3] = 0, 1
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink), RUPorts: &Range{2, 3}},
		Verdict: VerdictTx,
		Rewrite: &Rewrite{SetDst: &ru2MAC, RUPortMap: pm},
	}}}
	s, e, out := newXDP(t, prog, nil)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 3, 2, 50))
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ru2MAC {
		t.Fatalf("dst = %v", p.Eth.Dst)
	}
	if p.EAxC().RUPort != 1 {
		t.Fatalf("port = %d, want 1", p.EAxC().RUPort)
	}
	if e.Snapshot().KernelTx != 1 || e.Snapshot().Punts != 0 {
		t.Fatalf("stats = %+v", e.Snapshot())
	}
}

func TestKernelNoMatchPunts(t *testing.T) {
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink), RUPorts: &Range{2, 3}},
		Verdict: VerdictTx,
		Rewrite: &Rewrite{SetDst: &ru2MAC},
	}}}
	app := &forwarder{}
	s, e, out := newXDP(t, prog, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 2, 50)) // port 0: no match
	s.Run()
	if app.handled.Load() != 1 {
		t.Fatal("packet did not reach userspace")
	}
	if e.Snapshot().Punts != 1 {
		t.Fatalf("stats = %+v", e.Snapshot())
	}
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
}

func TestKernelDrop(t *testing.T) {
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneC},
		Verdict: VerdictDrop,
	}}}
	s, e, out := newXDP(t, prog, nil)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(cplaneFrame(t, b, oran.Downlink, 0))
	s.Run()
	if len(*out) != 0 || e.Snapshot().KernelDrop != 1 {
		t.Fatalf("out=%d stats=%+v", len(*out), e.Snapshot())
	}
}

func TestKernelMirror(t *testing.T) {
	// SSB fan-out: a matched packet is mirrored to a second RU while the
	// original continues.
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink)},
		Verdict: VerdictTx,
		Rewrite: &Rewrite{SetDst: &ruMAC},
		Mirrors: []Rewrite{{SetDst: &ru2MAC}},
	}}}
	s, e, out := newXDP(t, prog, nil)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 2, 50))
	s.Run()
	if len(*out) != 2 {
		t.Fatalf("out = %d", len(*out))
	}
	var a, c fh.Packet
	if err := a.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Decode((*out)[1]); err != nil {
		t.Fatal(err)
	}
	dsts := map[string]bool{a.Eth.Dst.String(): true, c.Eth.Dst.String(): true}
	if !dsts[ruMAC.String()] || !dsts[ru2MAC.String()] {
		t.Fatalf("dsts = %v", dsts)
	}
}

func TestKernelExponentStats(t *testing.T) {
	// Algorithm 1's kernel half: count utilized PRBs without decompressing.
	prog := &KernelProgram{Rules: []Rule{{
		Match:     Match{Plane: fh.PlaneU},
		Verdict:   VerdictPass,
		Exponents: &ExponentStats{ThrDL: 0, ThrUL: 2},
	}}}
	s, e, _ := newXDP(t, prog, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	// Strong samples (exponent > 0) — all 4 PRBs utilized on DL.
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 2, 20000))
	// Zero-ish samples — idle.
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 1))
	s.Run()
	if got := e.CounterValue("prb.seen.dl"); got != 8 {
		t.Fatalf("seen = %d", got)
	}
	if got := e.CounterValue("prb.utilized.dl"); got != 4 {
		t.Fatalf("utilized = %d", got)
	}
}

func TestKernelTimeWindowMatch(t *testing.T) {
	// SSB-style window: frame%2==0, slot 0, symbols 2..5.
	prog := &KernelProgram{Rules: []Rule{{
		Match: Match{
			Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink),
			FrameMod: 2, FrameVal: 1, // our test frames use FrameID 1
			Slot: u8Ptr(0), Symbols: &Range{2, 5},
		},
		Verdict: VerdictDrop, // drop so matching is observable
	}}}
	s, e, out := newXDP(t, prog, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 50)) // symbol 3: in window
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 7, 50)) // symbol 7: out
	s.Run()
	if e.Snapshot().KernelDrop != 1 {
		t.Fatalf("drops = %d", e.Snapshot().KernelDrop)
	}
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
}

func TestXDPIdleUtilizationLow(t *testing.T) {
	prog := &KernelProgram{Rules: []Rule{{Match: Match{}, Verdict: VerdictPass}}}
	s, e, _ := newXDP(t, prog, &forwarder{})
	e.ResetMeasurement()
	s.RunFor(10 * time.Millisecond)
	if u := e.Utilization(); u != 0 {
		t.Fatalf("idle XDP utilization = %v", u)
	}
	// Traffic raises it.
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	for i := 0; i < 100; i++ {
		e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, uint8(i%14), 50))
	}
	s.RunFor(time.Millisecond)
	if u := e.Utilization(); u <= 0 {
		t.Fatalf("loaded XDP utilization = %v", u)
	}
}

func TestFilterIndexMatch(t *testing.T) {
	// PRACH C-plane uses filterIndex 1.
	prog := &KernelProgram{Rules: []Rule{{
		Match:   Match{Plane: fh.PlaneC, FilterIndex: u8Ptr(1)},
		Verdict: VerdictDrop,
	}}}
	s, e, out := newXDP(t, prog, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	prach := &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: oran.Uplink, FilterIndex: 1},
		SectionType: oran.SectionType3,
		Sections:    []oran.CSection{{NumPRB: 12}},
	}
	e.Ingress(b.CPlane(ecpri.PcID{}, prach))
	e.Ingress(cplaneFrame(t, b, oran.Downlink, 0)) // filterIndex 0: passes
	s.Run()
	if e.Snapshot().KernelDrop != 1 || len(*out) != 1 {
		t.Fatalf("drops=%d out=%d", e.Snapshot().KernelDrop, len(*out))
	}
}
