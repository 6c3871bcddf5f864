package dmimo

import (
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

var (
	duMAC  = eth.MAC{2, 0, 0, 0, 0, 0x20}
	mbMAC  = eth.MAC{2, 0, 0, 0, 0, 0x21}
	ru1MAC = eth.MAC{2, 0, 0, 0, 0, 0x22}
	ru2MAC = eth.MAC{2, 0, 0, 0, 0, 0x23}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func cfg(replicate bool) Config {
	return Config{
		Name: "dm", MAC: mbMAC, DU: duMAC,
		RUs:          []RUSlot{{MAC: ru1MAC, Ports: 2}, {MAC: ru2MAC, Ports: 2}},
		SSB:          phy.DefaultSSB(),
		ReplicateSSB: replicate,
		CarrierPRBs:  273,
	}
}

func newEngine(t *testing.T, mode core.Mode, app *App) (*sim.Scheduler, *core.Engine, *[][]byte) {
	t.Helper()
	s := sim.NewScheduler()
	c := core.Config{Name: "dm", Mode: mode, App: app, CarrierPRBs: 273}
	if mode == core.ModeXDP {
		c.Kernel = app.KernelProgram()
	}
	eng, err := core.NewEngine(s, c)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	eng.SetOutput(fhtest.CopyTo(&out))
	return s, eng, &out
}

func uFrame(b *fh.Builder, dir oran.Direction, port, sym uint8) []byte {
	msg := &oran.UPlaneMsg{
		Timing:   oran.Timing{Direction: dir, FrameID: 0, SubframeID: 3, SlotID: 0, SymbolID: sym},
		Sections: []oran.USection{{StartPRB: 30, NumPRB: 2, Comp: bfp9(), Payload: make([]byte, 2*28)}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

func decode(t *testing.T, f []byte) *fh.Packet {
	t.Helper()
	var p fh.Packet
	if err := p.Decode(f); err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestLayers(t *testing.T) {
	if got := New(cfg(true)).Layers(); got != 4 {
		t.Fatalf("Layers = %d", got)
	}
}

func TestDownlinkRemapBothModes(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDPDK, core.ModeXDP} {
		app := New(cfg(true))
		s, eng, out := newEngine(t, mode, app)
		b := fh.NewBuilder(duMAC, mbMAC, -1)
		// Port 1 stays on RU1; port 3 remaps to RU2 port 1.
		eng.Ingress(uFrame(b, oran.Downlink, 1, 7))
		eng.Ingress(uFrame(b, oran.Downlink, 3, 7))
		s.Run()
		if len(*out) != 2 {
			t.Fatalf("%v: out = %d", mode, len(*out))
		}
		p1 := decode(t, (*out)[0])
		if p1.Eth.Dst != ru1MAC || p1.EAxC().RUPort != 1 {
			t.Fatalf("%v: first packet dst=%v port=%d", mode, p1.Eth.Dst, p1.EAxC().RUPort)
		}
		p2 := decode(t, (*out)[1])
		if p2.Eth.Dst != ru2MAC || p2.EAxC().RUPort != 1 {
			t.Fatalf("%v: second packet dst=%v port=%d", mode, p2.Eth.Dst, p2.EAxC().RUPort)
		}
	}
}

func TestUplinkRemapBothModes(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDPDK, core.ModeXDP} {
		app := New(cfg(true))
		s, eng, out := newEngine(t, mode, app)
		b := fh.NewBuilder(ru2MAC, mbMAC, -1)
		eng.Ingress(uFrame(b, oran.Uplink, 0, 10)) // RU2 local port 0 -> DU port 2
		s.Run()
		if len(*out) != 1 {
			t.Fatalf("%v: out = %d", mode, len(*out))
		}
		p := decode(t, (*out)[0])
		if p.Eth.Dst != duMAC || p.EAxC().RUPort != 2 {
			t.Fatalf("%v: dst=%v port=%d", mode, p.Eth.Dst, p.EAxC().RUPort)
		}
	}
}

func ssbFrame(b *fh.Builder) []byte {
	ssb := phy.DefaultSSB()
	msg := &oran.UPlaneMsg{
		Timing: oran.Timing{
			Direction: oran.Downlink, FrameID: 0, SubframeID: 0, SlotID: 0,
			SymbolID: uint8(ssb.StartSymbol),
		},
		Sections: []oran.USection{{StartPRB: 0, NumPRB: phy.SSBPRBs, Comp: bfp9(), Payload: make([]byte, phy.SSBPRBs*28)}},
	}
	return b.UPlane(ecpri.PcID{RUPort: 0}, msg)
}

// TestRemapSteadyStateAllocs pins the per-frame allocation budget of the
// port-remap datapath in both modes at zero, for a plain remap and for an
// SSB frame that is also replicated to the secondary RU: packet and replica
// come from the worker's pool and go back once they have left.
func TestRemapSteadyStateAllocs(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDPDK, core.ModeXDP} {
		app := New(cfg(true))
		s, eng, _ := newEngine(t, mode, app)
		eng.SetOutput(func([]byte) {})
		b := fh.NewBuilder(duMAC, mbMAC, -1)
		for _, step := range []struct {
			name  string
			frame []byte
			out   uint64 // frames emitted per frame in
		}{
			{"remap", uFrame(b, oran.Downlink, 3, 7), 1},
			{"SSB replica", ssbFrame(b), 2},
		} {
			// The engine rewrites the frame it is handed in place: every
			// pass starts from the DU's bytes again.
			rx := make([]byte, len(step.frame))
			pass := func() {
				copy(rx, step.frame)
				eng.Ingress(rx)
				s.Run()
			}
			for i := 0; i < 64; i++ {
				pass()
			}
			tx := eng.Snapshot().TxFrames
			avg := testing.AllocsPerRun(200, pass)
			if avg > 0 {
				t.Fatalf("%v: %s allocates %.1f objects/frame, want 0", mode, step.name, avg)
			}
			// In XDP mode the replica is the kernel program's mirror.
			if got := eng.Snapshot().TxFrames - tx; got != step.out*201 {
				t.Fatalf("%v: %s emitted %d frames over 201 passes, want %d", mode, step.name, got, step.out*201)
			}
			t.Logf("%v: %s allocations per frame: %.1f", mode, step.name, avg)
		}
	}
}

func TestSSBReplicationFanOut(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDPDK, core.ModeXDP} {
		app := New(cfg(true))
		s, eng, out := newEngine(t, mode, app)
		b := fh.NewBuilder(duMAC, mbMAC, -1)
		eng.Ingress(ssbFrame(b))
		s.Run()
		if len(*out) != 2 {
			t.Fatalf("%v: SSB fan-out = %d packets, want 2", mode, len(*out))
		}
		dsts := map[eth.MAC]int{}
		for _, f := range *out {
			p := decode(t, f)
			dsts[p.Eth.Dst]++
			if p.EAxC().RUPort != 0 {
				t.Fatalf("%v: SSB on port %d", mode, p.EAxC().RUPort)
			}
		}
		if dsts[ru1MAC] != 1 || dsts[ru2MAC] != 1 {
			t.Fatalf("%v: SSB destinations %v", mode, dsts)
		}
	}
}

func TestSSBReplicationDisabled(t *testing.T) {
	app := New(cfg(false))
	s, eng, out := newEngine(t, core.ModeDPDK, app)
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	eng.Ingress(ssbFrame(b))
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("out = %d, want 1 (primary only)", len(*out))
	}
	if app.SSBReplicas.Load() != 0 {
		t.Fatalf("replicas = %d", app.SSBReplicas.Load())
	}
}

func TestPortBeyondVirtualRUErrors(t *testing.T) {
	app := New(cfg(true))
	s, eng, out := newEngine(t, core.ModeDPDK, app)
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	eng.Ingress(uFrame(b, oran.Downlink, 5, 7)) // only 4 layers exist
	s.Run()
	if len(*out) != 0 {
		t.Fatal("out-of-range port forwarded")
	}
	if eng.Snapshot().AppErrors != 1 {
		t.Fatalf("errors = %d", eng.Snapshot().AppErrors)
	}
}

func TestKernelProgramVerifies(t *testing.T) {
	for _, replicate := range []bool{true, false} {
		if err := New(cfg(replicate)).KernelProgram().Verify(); err != nil {
			t.Fatalf("replicate=%v: %v", replicate, err)
		}
	}
}
