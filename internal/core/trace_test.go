package core

import (
	"errors"
	"sort"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// TestTraceSpansRecorded drives a traced DPDK engine and checks the span's
// identity fields, stage accounting, and action attribution end to end.
func TestTraceSpansRecorded(t *testing.T) {
	app := appFunc(func(ctx *Context, pkt *fh.Packet) error {
		key, err := fh.KeyOf(pkt)
		if err != nil {
			return err
		}
		ctx.Cache(key, ctx.Replicate(pkt))
		ctx.ChargeHeaderMod()
		ctx.Forward(pkt)
		return nil
	})
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: app, CarrierPRBs: 106, Trace: true, TraceRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !e.TraceEnabled() {
		t.Fatal("TraceEnabled = false on a Config.Trace engine")
	}
	e.SetOutput(func([]byte) {})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 3, 2, 100))
	s.Run()

	spans := e.TraceSpans()
	if len(spans) != 1 {
		t.Fatalf("TraceSpans = %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.EAxC != 3 || sp.Frame != 1 || sp.Subframe != 0 || sp.Slot != 0 {
		t.Fatalf("span identity = eAxC %d slot %s, want eAxC 3 slot 1.0.0", sp.EAxC, sp.SlotKey())
	}
	if sp.Class != uint8(ClassDLU) {
		t.Fatalf("span class = %s, want DL U-Plane", telemetry.ClassName(sp.Class))
	}
	if sp.Stages[telemetry.StageDecode] <= 0 {
		t.Fatalf("decode stage not charged: %+v", sp.Stages)
	}
	if sp.Stages[telemetry.StageKernel] != 0 {
		t.Fatalf("kernel stage charged on a DPDK engine: %v", sp.Stages[telemetry.StageKernel])
	}
	wantActions := uint8(1<<telemetry.ActionRedirect | 1<<telemetry.ActionReplicate |
		1<<telemetry.ActionCache | 1<<telemetry.ActionModify)
	if sp.Actions != wantActions {
		t.Fatalf("action mask = %08b, want %08b", sp.Actions, wantActions)
	}
	var actionSum time.Duration
	for _, d := range sp.ActionCost {
		if d <= 0 {
			t.Fatalf("flagged action with no cost: %+v", sp.ActionCost)
		}
		actionSum += d
	}
	if app := sp.Stages[telemetry.StageApp]; app != actionSum {
		t.Fatalf("app stage %v != sum of action costs %v", app, actionSum)
	}
	total := sp.Stages[telemetry.StageQueue] + sp.Stages[telemetry.StageDecode] +
		sp.Stages[telemetry.StageApp]
	if sp.Stages[telemetry.StageTotal] != total {
		t.Fatalf("total %v != queue+decode+app %v", sp.Stages[telemetry.StageTotal], total)
	}
	if got := time.Duration(sp.DoneAt - sp.EnqueuedAt); got != sp.Stages[telemetry.StageTotal] {
		t.Fatalf("DoneAt-EnqueuedAt %v != total stage %v", got, sp.Stages[telemetry.StageTotal])
	}

	st := e.Snapshot()
	if st.Trace == nil {
		t.Fatal("Snapshot.Trace nil on a traced engine")
	}
	if st.Trace.Spans != 1 || st.Trace.Stage[telemetry.StageTotal].Count != 1 {
		t.Fatalf("Snapshot.Trace = %d spans, total count %d", st.Trace.Spans, st.Trace.Stage[telemetry.StageTotal].Count)
	}
	if st.Trace.Action[telemetry.ActionCache].Count != 1 {
		t.Fatalf("A3 histogram count = %d, want 1", st.Trace.Action[telemetry.ActionCache].Count)
	}
}

// TestTraceDisabledByDefault: an untraced engine records nothing and its
// snapshot carries no trace block, so the disabled path stays free.
func TestTraceDisabledByDefault(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 3, 100))
	s.Run()
	if e.TraceEnabled() {
		t.Fatal("TraceEnabled on a default engine")
	}
	if spans := e.TraceSpans(); spans != nil {
		t.Fatalf("TraceSpans = %d spans on an untraced engine", len(spans))
	}
	if st := e.Snapshot(); st.Trace != nil {
		t.Fatalf("Snapshot.Trace = %+v, want nil", st.Trace)
	}
}

// TestEnableTracing retrofits tracing onto a running deployment the way
// scenario code does, and checks the management-plane guards.
func TestEnableTracing(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 100))
	s.Run()

	if err := e.EnableTracing(8); err != nil {
		t.Fatal(err)
	}
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 2, 100))
	s.Run()
	if spans := e.TraceSpans(); len(spans) != 1 {
		t.Fatalf("spans after EnableTracing = %d, want 1 (pre-enable frame untraced)", len(spans))
	}
	// Idempotent, and ring-capacity validation still applies.
	if err := e.EnableTracing(0); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
	if err := e.EnableTracing(MaxRingSize + 1); !errors.Is(err, ErrBadRing) {
		t.Fatalf("oversized trace ring: err = %v, want ErrBadRing", err)
	}

	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.EnableTracing(8); !errors.Is(err, ErrRunning) {
		t.Fatalf("EnableTracing while running: err = %v, want ErrRunning", err)
	}
}

// TestTraceRingValidation rejects oversized span rings at construction.
func TestTraceRingValidation(t *testing.T) {
	s := sim.NewScheduler()
	_, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106,
		Trace: true, TraceRing: MaxRingSize + 1})
	if !errors.Is(err, ErrBadRing) {
		t.Fatalf("err = %v, want ErrBadRing", err)
	}
}

// TestTraceXDPKernelStage: on an XDP engine the kernel stage is charged,
// and kernel-handled frames leave spans with no app stage.
func TestTraceXDPKernelStage(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{
		Name: "mon", Mode: ModeXDP, CarrierPRBs: 106, Trace: true,
		Kernel: &KernelProgram{Rules: []Rule{{Verdict: VerdictDrop}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	e.Ingress(uplaneFrame(t, b, oran.Downlink, 0, 1, 100))
	s.Run()
	spans := e.TraceSpans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1 (kernel drops are traced)", len(spans))
	}
	sp := spans[0]
	if sp.Stages[telemetry.StageKernel] <= 0 {
		t.Fatalf("kernel stage not charged: %+v", sp.Stages)
	}
	if sp.Stages[telemetry.StageApp] != 0 || sp.Actions != 0 {
		t.Fatalf("kernel-dropped frame carries app accounting: %+v", sp)
	}
}

// TestTrafficClassNamesAligned pins telemetry's span-class name table to
// core's TrafficClass, the contract ClassName relies on.
func TestTrafficClassNamesAligned(t *testing.T) {
	for c := TrafficClass(0); c < classCount; c++ {
		if got := telemetry.ClassName(uint8(c)); got != c.String() {
			t.Fatalf("telemetry.ClassName(%d) = %q, core name %q", c, got, c.String())
		}
	}
}

// TestStatsAddMergesTrace: the Stats combinator must merge optional trace
// readouts nil-safely.
func TestStatsAddMergesTrace(t *testing.T) {
	tr := telemetry.NewTracer(4)
	var sp telemetry.Span
	sp.Stages[telemetry.StageTotal] = time.Microsecond
	tr.Record(sp)
	ts := tr.Stats()

	a := Stats{RxFrames: 1, Trace: &ts}
	b := Stats{RxFrames: 2}
	if got := a.Add(b); got.Trace == nil || got.Trace.Spans != 1 {
		t.Fatalf("nil-right merge lost trace: %+v", got.Trace)
	}
	if got := b.Add(a); got.Trace == nil || got.Trace.Spans != 1 {
		t.Fatalf("nil-left merge lost trace: %+v", got.Trace)
	}
	got := a.Add(a)
	if got.Trace.Spans != 2 || got.Trace.Stage[telemetry.StageTotal].Count != 2 {
		t.Fatalf("merge = %d spans, total count %d, want 2/2", got.Trace.Spans, got.Trace.Stage[telemetry.StageTotal].Count)
	}
	if ts.Spans != 1 {
		t.Fatalf("merge mutated its input: %d spans", ts.Spans)
	}
}

// scanApp does representative userspace work per frame and no waiting:
// full U-plane decode plus an Algorithm-1-style exponent scan over the
// 273-PRB payload, then forward.
type scanApp struct{}

func (scanApp) Name() string { return "scan" }
func (scanApp) Handle(ctx *Context, pkt *fh.Packet) error {
	msg := ctx.UPlaneScratch(0)
	if err := pkt.UPlane(msg, 273); err != nil {
		return err
	}
	util := 0
	for i := range msg.Sections {
		sec := &msg.Sections[i]
		exps, err := ctx.Transcoder().Exponents(sec.Payload, sec.Comp)
		if err != nil {
			continue
		}
		for _, e := range exps {
			if e > 0 {
				util++
			}
		}
	}
	ctx.ChargeExponentScan(util)
	ctx.Forward(pkt)
	return nil
}

// inlineScanRun drives one full-carrier U-plane frame per eAxC stream, 8
// streams, through a deterministic inline engine: ingress, then every
// deferred emit. It returns the function that replays n frames.
func inlineScanRun(t *testing.T, traced bool) (run func(n int), eng *Engine) {
	t.Helper()
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(273), bfp9())
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 8)
	for port := range frames {
		msg := &oran.UPlaneMsg{
			Timing:   oran.Timing{Direction: oran.Downlink, FrameID: 1},
			Sections: []oran.USection{{NumPRB: 273, Comp: bfp9(), Payload: payload}},
		}
		frames[port] = fh.NewBuilder(duMAC, ruMAC, -1).UPlane(ecpri.PcID{RUPort: uint8(port)}, msg)
	}
	s := sim.NewScheduler()
	eng, err = NewEngine(s, Config{
		Name: "scan", Mode: ModeDPDK, App: scanApp{}, CarrierPRBs: 273, Trace: traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetOutput(func([]byte) {})
	run = func(n int) {
		for i := 0; i < n; i++ {
			eng.Ingress(frames[i&7])
			s.Run()
		}
	}
	run(256) // warm the rings, the span reservoir and the scheduler heap
	return run, eng
}

// TestTracingOverhead is the regression gate of the observability layer on
// the sleep-free inline datapath. What repeats is asserted exactly: with
// tracing on, a steady-state frame allocates exactly what it does with
// tracing off. Wall time does not repeat on a shared host — one
// traced/untraced ratio of this workload reads anywhere from -10% to +60%
// — so the time check is the median over interleaved pairs, alternating
// which side runs first, against a budget far above that noise: tracing
// may not double the cost of a frame (measured +15–30%: one span per frame
// on ~800 ns of decode and scan). Finer tracking belongs to ranbench's
// telemetry.span_overhead_pct, not to a pass/fail test.
func TestTracingOverhead(t *testing.T) {
	plainRun, _ := inlineScanRun(t, false)
	tracedRun, tracedEng := inlineScanRun(t, true)

	t.Run("allocs", func(t *testing.T) {
		plain := testing.AllocsPerRun(200, func() { plainRun(1) })
		traced := testing.AllocsPerRun(200, func() { tracedRun(1) })
		if traced != plain {
			t.Errorf("tracing changes allocations per frame: %.2f traced, %.2f untraced", traced, plain)
		}
		if st := tracedEng.Snapshot(); st.Trace == nil || st.Trace.Spans == 0 {
			t.Errorf("traced run recorded no spans: %+v", st.Trace)
		}
	})

	t.Run("time", func(t *testing.T) {
		if testing.Short() {
			t.Skip("timing comparison; skipped in -short")
		}
		if raceEnabled {
			t.Skip("timing comparison; race instrumentation distorts the traced/untraced ratio")
		}
		const pairs, frames, budget = 7, 20000, 1.0
		timeOf := func(run func(int)) time.Duration {
			start := time.Now()
			run(frames)
			return time.Since(start)
		}
		overheads := make([]float64, pairs)
		for i := range overheads {
			var p, tr time.Duration
			if i%2 == 0 {
				p, tr = timeOf(plainRun), timeOf(tracedRun)
			} else {
				tr, p = timeOf(tracedRun), timeOf(plainRun)
			}
			overheads[i] = float64(tr-p) / float64(p)
		}
		sort.Float64s(overheads)
		median := overheads[pairs/2]
		t.Logf("tracing overhead over %d interleaved pairs: median %+.1f%%, range %+.1f%% to %+.1f%%",
			pairs, median*100, overheads[0]*100, overheads[pairs-1]*100)
		if median > budget {
			t.Errorf("median tracing overhead %+.1f%% exceeds the %.0f%% budget (pairs: %.2f)",
				median*100, budget*100, overheads)
		}
	})
}
