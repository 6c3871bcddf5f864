package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// Engine supervision (DESIGN.md §6.7): the paper's middlebox is a
// transparent bump-in-the-wire — if it misbehaves, the cell goes down —
// so the datapath must never let a buggy or overloaded *app* become the
// single point of failure. Two mechanisms, both opt-in through
// SupervisePolicy and both fail-to-wire (frames keep forwarding):
//
//   - Panic isolation: an App panic is recovered per frame (or per
//     burst), the offending frames are quarantined to raw passthrough,
//     and a per-app circuit breaker trips after PanicBudget panics —
//     Open (passthrough only) → Half-Open (one probe) → Closed.
//   - Shard watchdog: Engine.Supervise detects a worker stuck inside
//     Handle for StallAfter of wall time (progress counters say which
//     invocation, the monotonic clock says for how long) and performs a
//     hitless shard restart — the wedged goroutine is abandoned, a
//     fresh worker incarnation takes over the same ingress ring, and
//     frames never popped keep their per-eAxC FIFO order.

// DefaultBreakerCooldown is the Open → Half-Open delay when panic
// isolation is enabled with SupervisePolicy.BreakerCooldown zero.
const DefaultBreakerCooldown = time.Millisecond

// SupervisePolicy groups the engine-supervision knobs of Config. The
// zero value disables both mechanisms: panics propagate and stalls wedge
// their shard.
type SupervisePolicy struct {
	// PanicBudget enables panic isolation when positive: an App panic is
	// recovered, the frame (or burst) is quarantined to raw passthrough
	// (Stats.AppPanics, Stats.Quarantined), and after PanicBudget panics
	// the per-shard circuit breaker opens. 0 disables isolation (panics
	// propagate and crash, as without supervision); negative values are
	// rejected with ErrBadPanicBudget.
	PanicBudget int
	// BreakerCooldown is how long an Open breaker quarantines everything
	// before Half-Open admits one probe invocation. 0 defaults to
	// DefaultBreakerCooldown when PanicBudget is set; negative values are
	// rejected with ErrBadCooldown.
	BreakerCooldown time.Duration
	// StallAfter enables the shard watchdog when positive: a worker that
	// has been inside one Handle/HandleBurst call for StallAfter (as
	// observed by Engine.Supervise polls) is declared Stalled and its
	// shard is restarted hitlessly. The watchdog exists only under Start,
	// where workers are goroutines, so this is wall time on the monotonic
	// clock — advancing the scheduler does not age an invocation. Set it
	// above the longest healthy invocation plus the host's worst
	// preemption. 0 disables the watchdog; negative values are rejected
	// with ErrBadStallAfter.
	StallAfter time.Duration
}

// withDefaults resolves zero fields to the documented defaults.
func (p SupervisePolicy) withDefaults() SupervisePolicy {
	if p.PanicBudget > 0 && p.BreakerCooldown == 0 {
		p.BreakerCooldown = DefaultBreakerCooldown
	}
	return p
}

// validate rejects out-of-range knobs with the typed errors of errors.go.
func (p SupervisePolicy) validate() error {
	if p.PanicBudget < 0 {
		return fmt.Errorf("%w: %d", ErrBadPanicBudget, p.PanicBudget)
	}
	if p.BreakerCooldown < 0 {
		return fmt.Errorf("%w: %v", ErrBadCooldown, p.BreakerCooldown)
	}
	if p.StallAfter < 0 {
		return fmt.Errorf("%w: %v", ErrBadStallAfter, p.StallAfter)
	}
	return nil
}

// BreakerState is the circuit breaker's position, ordered by severity so
// Stats.Add merges shard states with max.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: invocations flow to the App normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; the next invocation is a
	// probe — success closes the breaker, a panic re-opens it.
	BreakerHalfOpen
	// BreakerOpen: the panic budget is exhausted; every frame is
	// quarantined to raw passthrough without invoking the App.
	BreakerOpen
)

// String names the state.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// KPIBreaker is published on the engine's telemetry bus at every breaker
// transition; the sample value is the new BreakerState.
const KPIBreaker = "engine.breaker"

// errShardRetired unwinds an abandoned worker goroutine: after a
// restart bumped the shard's epoch, the old incarnation's first step
// back from the App (or out of its idle block) panics with this
// sentinel and worker.retire exits the goroutine quietly.
var errShardRetired = errors.New("core: shard worker retired by supervisor")

// breaker is one shard's circuit breaker. state/openedAt are atomics —
// the worker trips and probes, Engine.Supervise thaws, Snapshot reads —
// while panics is touched only by worker incarnations (handoff between
// incarnations is ordered by the supervision mutex).
type breaker struct {
	// state is the trip/probe/recover cycle: the worker trips (any state
	// can reach Open), Supervise or an admitting worker thaws
	// Open->HalfOpen after the cooldown, and the probe outcome settles
	// HalfOpen back to Closed (success) or Open (another panic).
	//
	//ranvet:statemach BreakerClosed->BreakerOpen BreakerHalfOpen->BreakerOpen BreakerOpen->BreakerHalfOpen BreakerHalfOpen->BreakerClosed
	state    atomic.Uint32
	openedAt atomic.Int64
	// panics counts budget consumed since the last clean probe/trip.
	panics int
}

// Supervise runs one management-plane supervision poll: it thaws open
// breakers whose cooldown elapsed and restarts shards whose worker has
// been stuck inside one App invocation for SupervisePolicy.StallAfter.
// Call it periodically (e.g. from a sim.Ticker) on the producer/
// scheduler goroutine — the same single-caller contract as Ingress. It
// is a no-op in deterministic inline mode, where an App stall would
// block the caller itself and the breaker thaws on the datapath. The
// breaker cooldown runs on virtual time, the stall deadline on
// sim.Monotonic (see SupervisePolicy.StallAfter).
func (e *Engine) Supervise() {
	if !e.parallel {
		return
	}
	now, wall := e.sched.Now(), sim.Monotonic()
	sup := e.cfg.Supervise
	for _, sh := range e.shards {
		if sup.PanicBudget > 0 {
			sh.thawBreaker(now)
		}
		if sup.StallAfter <= 0 {
			continue
		}
		// The progress counters name the in-flight invocation (appSeq is
		// never 0 while one is in flight, so 0 marks "nothing watched");
		// wdSince is when a poll first saw it.
		w := sh.w
		seq, done := w.appSeq.Load(), w.appDone.Load()
		if seq == done {
			sh.wdLastSeq = 0
			continue
		}
		if seq != sh.wdLastSeq {
			sh.wdLastSeq, sh.wdSince = seq, wall
			continue
		}
		if wall.Sub(sh.wdSince) >= sup.StallAfter {
			e.restartShard(sh, now)
		}
	}
}

// thawBreaker moves an Open breaker whose cooldown elapsed to Half-Open.
// Supervisor-side counterpart of the worker's breakerAdmits thaw: in
// parallel mode the workers' clocks are frozen, so only the supervisor
// observes virtual time advancing.
func (sh *shard) thawBreaker(now sim.Time) {
	b := &sh.brk
	if BreakerState(b.state.Load()) != BreakerOpen {
		return
	}
	if now.Sub(sim.Time(b.openedAt.Load())) < sh.eng.cfg.Supervise.BreakerCooldown {
		return
	}
	if b.state.CompareAndSwap(uint32(BreakerOpen), uint32(BreakerHalfOpen)) {
		sh.eng.bus.Publish(telemetry.Sample{Name: KPIBreaker, At: now, Value: float64(BreakerHalfOpen)})
	}
}

// restartShard performs the hitless shard restart: under the supervision
// mutex it re-checks the stall, bumps the shard's epoch (which retires
// the wedged goroutine at its first step back into datapath code),
// installs a fresh worker incarnation over the same ingress ring, and
// respawns. Frames still queued in the ring were never popped, so their
// per-eAxC FIFO order is untouched; the wedged burst's in-flight frames
// are abandoned with the old incarnation, and so are the packets it had
// cached.
func (e *Engine) restartShard(sh *shard, now sim.Time) {
	sh.superMu.Lock()
	w := sh.w
	if w.appSeq.Load() == w.appDone.Load() {
		// The worker escaped the App between our poll and the lock; with
		// the mutex held it cannot be inside the App now — not a stall.
		sh.superMu.Unlock()
		sh.wdLastSeq = 0
		return
	}
	sh.epoch.Add(1)
	sh.stats.shardRestarts.Add(1)
	if Health(sh.stats.health.Load()) != Stalled {
		sh.stats.health.Store(uint32(Stalled))
		e.bus.Publish(telemetry.Sample{Name: KPIHealth, At: now, Value: float64(Stalled)})
	}
	// A restart forfeits the old incarnation's A3 entries: the abandoned
	// App may still hold references into them, and keeps reading its own
	// store (worker.cache) while the queue starts over with an empty one.
	sh.q.cache = NewCache(cacheMaxAge)
	sh.w = newWorker(sh)
	sh.wdLastSeq = 0
	sh.spawn(e.stopc)
	sh.superMu.Unlock()
}
