// App-level fault injection: deterministic misbehaving-middlebox
// wrappers for exercising the engine's supervision machinery (panic
// isolation, circuit breaker, stall watchdog). Where fault.Injector
// attacks the transport, these attack the App itself — the other half of
// the robustness story: a middlebox platform must survive not only a
// hostile fronthaul but also its own buggy payload.
//
// Both wrappers are transparent interposers: they preserve the inner
// App's Name, delegate every call they do not sabotage, and keep the
// burst contract — wrapping a core.BurstApp yields a core.BurstApp,
// wrapping a plain core.App yields a plain core.App. Sabotage happens
// BEFORE delegation, so a panicked or stalled call leaves its frames
// untouched; the engine's quarantine path then fails them to the wire
// byte-identical to what arrived.
//
// Like the link injectors, everything is deterministic: PanicEvery
// derives its firing phase from a seed, StallFor wedges exactly one
// numbered call, and the same seed and call sequence replay
// bit-identically.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/fh"
	"ranbooster/internal/sim"
)

// PanicStats is the observer handle PanicEvery returns alongside the
// wrapped App: it counts invocations and injected panics. Safe for
// concurrent use from parallel shard workers.
type PanicStats struct {
	calls  atomic.Uint64
	panics atomic.Uint64
}

// Calls returns how many times the wrapped App has been invoked
// (Handle calls, or HandleBurst calls for a burst-aware inner App).
func (s *PanicStats) Calls() uint64 { return s.calls.Load() }

// Panics returns how many invocations panicked instead of delegating.
func (s *PanicStats) Panics() uint64 { return s.panics.Load() }

// trip counts one invocation and panics when it lands on the injector's
// phase. It runs before any delegation so the frames of a tripped call
// are never touched.
func (s *PanicStats) trip(every, phase uint64) {
	n := s.calls.Add(1)
	if n%every == phase {
		s.panics.Add(1)
		panic(fmt.Sprintf("fault: injected app panic (call %d)", n))
	}
}

// panicApp wraps a plain core.App.
type panicApp struct {
	inner core.App
	every uint64
	phase uint64
	stats *PanicStats
}

func (a *panicApp) Name() string { return a.inner.Name() }

func (a *panicApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	a.stats.trip(a.every, a.phase)
	return a.inner.Handle(ctx, pkt)
}

// panicBurstApp additionally forwards the burst contract: one counted
// invocation per drained burst, matching how the engine charges the App.
type panicBurstApp struct {
	panicApp
	burst core.BurstApp
}

func (a *panicBurstApp) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	a.stats.trip(a.every, a.phase)
	return a.burst.HandleBurst(ctx, pkts)
}

// PanicEvery wraps inner so that every n-th invocation panics instead of
// delegating. The seed picks which call inside each window of n fires
// (phase = seed mod n), so distinct seeds shift the pattern while the
// rate stays exactly 1/n; the same seed replays the same call indices.
// Panics are raised before inner sees the frames, so the engine's
// quarantine forwards them exactly as they arrived.
//
// The returned App is burst-aware iff inner is. The PanicStats handle
// observes the injector from outside the engine.
func PanicEvery(inner core.App, n int, seed uint64) (core.App, *PanicStats) {
	if n <= 0 {
		panic("fault: PanicEvery needs n >= 1")
	}
	st := &PanicStats{}
	pa := panicApp{inner: inner, every: uint64(n), phase: seed % uint64(n), stats: st}
	if b, ok := inner.(core.BurstApp); ok {
		return &panicBurstApp{panicApp: pa, burst: b}, st
	}
	return &pa, st
}

// Stall states.
const (
	stallArmed    uint32 = iota // waiting for the trigger call
	stallWedged                 // a worker goroutine is blocked inside Handle
	stallReleased               // the block has been (or will never be) taken
)

// Stall is the control handle StallFor returns alongside the wrapped
// App. Exactly one invocation — the onCall-th — blocks inside the App
// until Release is called; the shard watchdog should detect the wedged
// worker and restart the shard around it long before that.
type Stall struct {
	calls   atomic.Uint64
	state   atomic.Uint32
	release chan struct{}
}

// Stalled reports whether a worker goroutine is currently wedged inside
// the stalled call.
func (s *Stall) Stalled() bool { return s.state.Load() == stallWedged }

// Calls returns how many times the wrapped App has been invoked.
func (s *Stall) Calls() uint64 { return s.calls.Load() }

// Release unblocks the wedged call (and disarms a stall that has not
// fired yet). Idempotent.
func (s *Stall) Release() {
	for {
		st := s.state.Load()
		if st == stallReleased {
			return
		}
		if s.state.CompareAndSwap(st, stallReleased) {
			close(s.release)
			return
		}
	}
}

// Arm installs a virtual-time release policy on the scheduler: a poll
// ticker watches for the stall to fire and, once it has, schedules
// Release after d more virtual time. This is how a chaos run expresses
// "the app wedges for d" without wall-clock sleeps. The returned stop
// function cancels the ticker. d does not order against the shard
// watchdog's deadline, which is wall time.
func (s *Stall) Arm(sched *sim.Scheduler, d, poll time.Duration) (stop func()) {
	scheduled := false
	return sched.Ticker(poll, func() {
		if !scheduled && s.Stalled() {
			scheduled = true
			sched.After(d, s.Release)
		}
	})
}

// maybeStall counts one invocation and blocks when it is the trigger.
func (s *Stall) maybeStall(onCall uint64) {
	if s.calls.Add(1) != onCall {
		return
	}
	if s.state.CompareAndSwap(stallArmed, stallWedged) {
		<-s.release
	}
}

// stallApp wraps a plain core.App.
type stallApp struct {
	inner  core.App
	onCall uint64
	ctl    *Stall
}

func (a *stallApp) Name() string { return a.inner.Name() }

func (a *stallApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	a.ctl.maybeStall(a.onCall)
	return a.inner.Handle(ctx, pkt)
}

// stallBurstApp forwards the burst contract.
type stallBurstApp struct {
	stallApp
	burst core.BurstApp
}

func (a *stallBurstApp) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	a.ctl.maybeStall(a.onCall)
	return a.burst.HandleBurst(ctx, pkts)
}

// StallFor wraps inner so that exactly the onCall-th invocation (1-based;
// Handle calls, or HandleBurst calls for a burst-aware inner) blocks
// until the returned Stall handle releases it — a deterministic model of
// an App deadlocking or spinning forever on one unlucky input. The
// blocked call holds only the App's own goroutine: a supervised engine
// detects the wedge via its watchdog and restarts the shard around it.
//
// The returned App is burst-aware iff inner is.
func StallFor(inner core.App, onCall uint64) (core.App, *Stall) {
	if onCall == 0 {
		panic("fault: StallFor needs a 1-based call index")
	}
	ctl := &Stall{release: make(chan struct{})}
	sa := stallApp{inner: inner, onCall: onCall, ctl: ctl}
	if b, ok := inner.(core.BurstApp); ok {
		return &stallBurstApp{stallApp: sa, burst: b}, ctl
	}
	return &sa, ctl
}
