package core

// White-box tests for the graceful-degradation path: sequence-gap
// detection, frame-validity guards, the C-plane-over-U-plane shedding
// policy, and the per-shard health state machine.

import (
	"testing"

	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

func TestSeqGapDetection(t *testing.T) {
	s, e, out := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	// Build 10 consecutive frames of one stream, deliver only every third:
	// indices 0,3,6,9 — three gaps of two missing frames each.
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
	}
	for i := 0; i < len(frames); i += 3 {
		e.Ingress(frames[i])
	}
	s.Run()
	st := e.Snapshot()
	if st.SeqGaps != 6 {
		t.Fatalf("SeqGaps = %d, want 6", st.SeqGaps)
	}
	if st.Duplicates != 0 || st.Reordered != 0 {
		t.Fatalf("unexpected duplicate/reorder counts: %+v", st)
	}
	if len(*out) != 4 {
		t.Fatalf("delivered %d frames, want 4", len(*out))
	}
}

func TestDuplicateAndReorderDetection(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	f0 := uplaneFrame(t, b, oran.Downlink, 0, 3, 100) // seq 0
	f1 := uplaneFrame(t, b, oran.Downlink, 0, 4, 100) // seq 1
	f2 := uplaneFrame(t, b, oran.Downlink, 0, 5, 100) // seq 2

	e.Ingress(f0)
	e.Ingress(f2)                         // seq 1 overtaken: one gap
	e.Ingress(append([]byte(nil), f2...)) // exact duplicate of seq 2
	e.Ingress(f1)                         // the late frame arrives: reordered
	s.Run()
	st := e.Snapshot()
	if st.SeqGaps != 1 {
		t.Fatalf("SeqGaps = %d, want 1", st.SeqGaps)
	}
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	if st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", st.Reordered)
	}
}

// TestSeqStreamsIndependent: sequence tracking is per (source, eAxC) —
// interleaved streams must not alias into false gaps.
func TestSeqStreamsIndependent(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b1 := fh.NewBuilder(duMAC, ruMAC, 6)
	b2 := fh.NewBuilder(ru2MAC, ruMAC, 6)
	for i := 0; i < 20; i++ {
		e.Ingress(uplaneFrame(t, b1, oran.Downlink, 0, 3, 100))
		e.Ingress(uplaneFrame(t, b2, oran.Downlink, 0, 3, 100)) // same eAxC, other source
		e.Ingress(uplaneFrame(t, b1, oran.Downlink, 1, 3, 100)) // same source, other eAxC
	}
	s.Run()
	st := e.Snapshot()
	if st.SeqGaps != 0 || st.Duplicates != 0 || st.Reordered != 0 {
		t.Fatalf("clean interleaved streams miscounted: %+v", st)
	}
}

func TestInvalidFrameDropped(t *testing.T) {
	app := &forwarder{}
	s, e, out := newDPDK(t, app)
	b := fh.NewBuilder(duMAC, ruMAC, 6)

	good := uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
	badVersion := append([]byte(nil), good...)
	badVersion[18] = (badVersion[18] & 0x0f) | (7 << 4) // eCPRI version 7 (VLAN-tagged: eCPRI at 18)
	badType := append([]byte(nil), good...)
	badType[19] = 0x3f // unknown eCPRI message type

	e.Ingress(badVersion)
	e.Ingress(badType)
	e.Ingress(good)
	s.Run()
	st := e.Snapshot()
	if st.InvalidFrames != 2 {
		t.Fatalf("InvalidFrames = %d, want 2", st.InvalidFrames)
	}
	if app.handled.Load() != 1 || len(*out) != 1 {
		t.Fatalf("app saw %d frames, out %d — corrupted input leaked", app.handled.Load(), len(*out))
	}
}

// TestShedUPlaneBeforeCPlane drives the admission rule on a parked engine
// (no worker drains, unlike Ingress in deterministic mode): with the ring
// nearly full, U-plane frames must be shed while C-plane still gets in,
// and C-plane is dropped only when the ring is completely full.
func TestShedUPlaneBeforeCPlane(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{
		Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106,
		RingSize: 16, // reserve 16/8 = 2 slots
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	e.parallel = true
	defer func() { e.parallel = false }()
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	sh := e.shards[0]
	admit := func(f []byte) bool { return e.ingress(f, true) }

	// Stuff the ring up to the reserve boundary: 14 of 16 slots.
	for i := 0; i < 14; i++ {
		if !admit(uplaneFrame(t, b, oran.Downlink, 0, 3, 100)) {
			t.Fatalf("admit below headroom failed at %d", i)
		}
	}
	uFrame := func() []byte { return uplaneFrame(t, b, oran.Downlink, 0, 3, 100) }
	cFrame := func() []byte { return cplaneFrame(t, b, oran.Downlink, 0) }

	if admit(uFrame()) {
		t.Fatal("U-plane admitted inside C-plane headroom")
	}
	if !admit(cFrame()) {
		t.Fatal("C-plane shed while slots remained")
	}
	if admit(uFrame()) {
		t.Fatal("U-plane admitted inside C-plane headroom")
	}
	if !admit(cFrame()) {
		t.Fatal("C-plane shed while the last slot remained")
	}
	// Ring is now completely full: only now may C-plane drop.
	if admit(cFrame()) {
		t.Fatal("C-plane admitted into a full ring")
	}
	st := e.Snapshot()
	if st.ShedUPlane != 2 {
		t.Fatalf("ShedUPlane = %d, want 2", st.ShedUPlane)
	}
	if st.RingDrops != 1 {
		t.Fatalf("RingDrops = %d, want 1", st.RingDrops)
	}

	// Accounting: drain and check offered == processed + shed + dropped.
	for sh.w.drainStream(sh.q, 100) > 0 {
	}
	s.Run()
	st = e.Snapshot()
	offered := uint64(14 + 5) // 14 stuffed + 5 admit attempts
	if st.RxFrames+st.ShedUPlane+st.RingDrops != offered {
		t.Fatalf("accounting: rx %d + shed %d + drops %d != offered %d",
			st.RxFrames, st.ShedUPlane, st.RingDrops, offered)
	}
}

// TestHealthMachine walks the state machine through its transitions via
// the shard's window evaluation, checking both the Snapshot surface and
// the KPIHealth telemetry publications.
func TestHealthMachine(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	rec := telemetry.NewRecorder()
	rec.Attach(e.Bus(), KPIHealth)
	sh := e.shards[0]

	if e.Snapshot().Health != Healthy {
		t.Fatalf("initial health = %v", e.Snapshot().Health)
	}
	// A window with transport faults degrades.
	sh.stats.seqGaps.Add(3)
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Degraded {
		t.Fatalf("after faults: %v, want degraded", got)
	}
	// Ring pressure escalates to stalled.
	sh.stats.shedUPlane.Add(1)
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Stalled {
		t.Fatalf("after shed: %v, want stalled", got)
	}
	// Recovery steps down one level per clean window, not straight home.
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Degraded {
		t.Fatalf("first clean window: %v, want degraded", got)
	}
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Healthy {
		t.Fatalf("second clean window: %v, want healthy", got)
	}
	// Four transitions published: degraded, stalled, degraded, healthy.
	series := rec.Series(KPIHealth)
	want := []Health{Degraded, Stalled, Degraded, Healthy}
	if len(series) != len(want) {
		t.Fatalf("published %d transitions, want %d", len(series), len(want))
	}
	for i, smp := range series {
		if Health(smp.Value) != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, Health(smp.Value), want[i])
		}
	}
	if last, ok := rec.Last(KPIHealth); !ok || Health(last.Value) != Healthy {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

// TestHealthNamedTransitions pins the branch semantics updateHealth kept
// when its arithmetic step-down (next = cur - 1, flagged by statemach as
// an undeclared transition) was rewritten into named-constant branches:
// faults during Stalled must not step the state anywhere, and an open
// breaker floors recovery at Degraded without ever blocking the
// Stalled -> Degraded step.
func TestHealthNamedTransitions(t *testing.T) {
	s := sim.NewScheduler()
	e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106})
	if err != nil {
		t.Fatal(err)
	}
	e.SetOutput(func([]byte) {})
	sh := e.shards[0]

	// Stall the shard, then observe a faulty (not clean) window: Stalled
	// absorbs the fault without a transition.
	sh.stats.ringDrops.Add(1)
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Stalled {
		t.Fatalf("after ring drop: %v, want stalled", got)
	}
	sh.stats.seqGaps.Add(1)
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Stalled {
		t.Fatalf("faults while stalled: %v, want stalled (no step-down)", got)
	}

	// With the breaker open, clean windows recover Stalled -> Degraded
	// and then hold: a bypassed App keeps the shard at least Degraded.
	sh.brk.state.Store(uint32(BreakerOpen))
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Degraded {
		t.Fatalf("clean window while stalled: %v, want degraded", got)
	}
	sh.updateHealth()
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Degraded {
		t.Fatalf("clean windows with open breaker: %v, want degraded floor", got)
	}

	// Breaker closes: the next clean window completes the recovery.
	sh.brk.state.Store(uint32(BreakerClosed))
	sh.updateHealth()
	if got := e.Snapshot().Health; got != Healthy {
		t.Fatalf("clean window after breaker closed: %v, want healthy", got)
	}
}

// TestHealthViaDatapath: a lossy stream long enough to cross window
// boundaries must surface Degraded through the normal datapath.
func TestHealthViaDatapath(t *testing.T) {
	s, e, _ := newDPDK(t, &forwarder{})
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	for i := 0; i < 2*healthWindow; i++ {
		f := uplaneFrame(t, b, oran.Downlink, 0, 3, 100)
		if i%2 == 0 { // drop every other frame before the engine
			continue
		}
		e.Ingress(f)
	}
	s.Run()
	st := e.Snapshot()
	if st.SeqGaps == 0 {
		t.Fatal("lossy stream produced no gaps")
	}
	if st.Health != Degraded {
		t.Fatalf("health = %v, want degraded", st.Health)
	}
}

func TestStatsAddFaultFields(t *testing.T) {
	a := Stats{SeqGaps: 1, Duplicates: 2, Reordered: 3, InvalidFrames: 4, ShedUPlane: 5, Health: Stalled}
	b := Stats{SeqGaps: 10, Duplicates: 20, Reordered: 30, InvalidFrames: 40, ShedUPlane: 50, Health: Degraded}
	got := a.Add(b)
	if got.SeqGaps != 11 || got.Duplicates != 22 || got.Reordered != 33 ||
		got.InvalidFrames != 44 || got.ShedUPlane != 55 {
		t.Fatalf("Add = %+v", got)
	}
	if got.Health != Stalled {
		t.Fatalf("Health merged to %v, want max (stalled)", got.Health)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Stalled: "stalled", Health(9): "unknown"} {
		if h.String() != want {
			t.Fatalf("%d.String() = %q", h, h.String())
		}
	}
}
