package prbmon

import (
	"testing"
	"time"

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
	"ranbooster/internal/telemetry"
)

var (
	duMAC = eth.MAC{2, 0, 0, 0, 0, 0x40}
	mbMAC = eth.MAC{2, 0, 0, 0, 0, 0x41}
	ruMAC = eth.MAC{2, 0, 0, 0, 0, 0x42}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func newMon(t *testing.T, method Estimator) (*sim.Scheduler, *core.Engine, *App, *[][]byte) {
	t.Helper()
	app := New(Config{
		Name: "mon", MAC: mbMAC, DU: duMAC, RU: ruMAC,
		Carrier: phy.NewCarrier(40, 3_460_000_000), TDD: phy.MustTDD("DDDSU"),
		ThrDL: DefaultThrDL, ThrUL: DefaultThrUL,
		Method:   method,
		Interval: 10 * time.Millisecond,
	})
	s := sim.NewScheduler()
	eng, err := core.NewEngine(s, core.Config{Name: "mon", Mode: core.ModeDPDK, App: app, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	eng.SetOutput(fhtest.CopyTo(&out))
	return s, eng, app, &out
}

func frame(t *testing.T, b *fh.Builder, dir oran.Direction, port uint8, nPRB int, amp int16) []byte {
	t.Helper()
	g := iq.NewGrid(nPRB)
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
		Timing:   oran.Timing{Direction: dir, SymbolID: 3},
		Sections: []oran.USection{{NumPRB: nPRB, Comp: bfp9(), Payload: payload}},
	}
	return b.UPlane(ecpri.PcID{RUPort: port}, msg)
}

func TestAlgorithm1Counting(t *testing.T) {
	for _, method := range []Estimator{EstimatorExponent, EstimatorEnergy} {
		s, eng, app, _ := newMon(t, method)
		b := fh.NewBuilder(duMAC, mbMAC, -1)
		eng.Ingress(frame(t, b, oran.Downlink, 0, 10, 16000)) // utilized
		eng.Ingress(frame(t, b, oran.Downlink, 0, 10, 0))     // idle
		bRU := fh.NewBuilder(ruMAC, mbMAC, -1)
		eng.Ingress(frame(t, bRU, oran.Uplink, 0, 10, 300))   // noise: idle
		eng.Ingress(frame(t, bRU, oran.Uplink, 0, 10, 12000)) // data: utilized
		s.Run()
		if app.utilDL.Load() != 10 {
			t.Fatalf("method %d: utilDL = %d, want 10", method, app.utilDL.Load())
		}
		if app.utilUL.Load() != 10 {
			t.Fatalf("method %d: utilUL = %d, want 10", method, app.utilUL.Load())
		}
	}
}

func TestOnlyPortZeroCounted(t *testing.T) {
	s, eng, app, _ := newMon(t, EstimatorExponent)
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	eng.Ingress(frame(t, b, oran.Downlink, 1, 10, 16000)) // layer 2: same grid
	s.Run()
	if app.utilDL.Load() != 0 {
		t.Fatalf("utilDL = %d; MIMO layers must not double count", app.utilDL.Load())
	}
}

func TestTransparentForwarding(t *testing.T) {
	s, eng, _, out := newMon(t, EstimatorExponent)
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	orig := frame(t, b, oran.Downlink, 0, 10, 16000)
	eng.Ingress(orig)
	s.Run()
	if len(*out) != 1 {
		t.Fatalf("out = %d", len(*out))
	}
	var p fh.Packet
	if err := p.Decode((*out)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != ruMAC || p.Eth.Src != mbMAC {
		t.Fatalf("forwarded addressing %v -> %v", p.Eth.Src, p.Eth.Dst)
	}
	// Payload untouched (monitoring is passive): compare O-RAN payloads.
	var q fh.Packet
	if err := q.Decode(orig); err != nil {
		t.Fatal(err)
	}
	if string(p.App) != string(q.App) {
		t.Fatal("payload modified by a passive monitor")
	}
}

func TestPublishInterval(t *testing.T) {
	s, eng, _, _ := newMon(t, EstimatorExponent)
	rec := telemetry.NewRecorder()
	rec.Attach(eng.Bus(), "")
	b := fh.NewBuilder(duMAC, mbMAC, -1)
	// Feed packets across 25 ms of virtual time: at a 10 ms interval, at
	// least two publications must appear.
	for i := 0; i < 25; i++ {
		i := i
		s.At(sim.Time(i)*sim.Time(time.Millisecond), func() {
			eng.Ingress(frame(t, b, oran.Downlink, 0, 10, 16000))
		})
	}
	s.Run()
	if got := len(rec.Series(KPIUtilizationDL)); got < 2 {
		t.Fatalf("publications = %d", got)
	}
}

func TestControlSetThresholds(t *testing.T) {
	_, _, app, _ := newMon(t, EstimatorExponent)
	if err := app.Control("set-thr", map[string]string{"dl": "1", "ul": "3"}); err != nil {
		t.Fatal(err)
	}
	if app.cfg.ThrDL != 1 || app.cfg.ThrUL != 3 {
		t.Fatalf("thresholds %d/%d", app.cfg.ThrDL, app.cfg.ThrUL)
	}
	if err := app.Control("set-thr", map[string]string{"dl": "x"}); err == nil {
		t.Fatal("bad value accepted")
	}
	if err := app.Control("nope", nil); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestKernelProgramVerifies(t *testing.T) {
	_, _, app, _ := newMon(t, EstimatorExponent)
	if err := app.KernelProgram().Verify(); err != nil {
		t.Fatal(err)
	}
}
