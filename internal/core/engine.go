package core

import (
	"fmt"
	"sort"
	"time"

	"ranbooster/internal/cpu"
	"ranbooster/internal/fh"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// Mode selects the datapath technology (§5).
type Mode uint8

// Datapath modes.
const (
	// ModeDPDK is the kernel-bypass poll-mode datapath: lowest latency,
	// but its cores spin at 100% regardless of load.
	ModeDPDK Mode = iota
	// ModeXDP is the in-kernel, interrupt-driven datapath: a verified rule
	// program handles cheap actions at the driver hook; everything else is
	// punted to the userspace App over an AF_XDP-style handoff.
	ModeXDP
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeXDP {
		return "XDP"
	}
	return "DPDK"
}

// Sizing bounds validated by NewEngine.
const (
	// MaxCores bounds Config.Cores, in the spirit of a real server's
	// socket size.
	MaxCores = 64
	// MaxRingSize bounds the per-shard ingress ring.
	MaxRingSize = 1 << 20
	// DefaultBatch is the per-wakeup drain bound when BurstPolicy.Batch
	// is 0.
	DefaultBatch = 32
	// DefaultRingSize is the per-shard ring capacity when Config.RingSize
	// is 0.
	DefaultRingSize = 1024
	// DefaultTraceRing is the per-shard span-ring capacity when tracing is
	// enabled with Config.TraceRing 0.
	DefaultTraceRing = 1024
)

// Config describes one middlebox instance. It is construction-time input:
// NewEngine validates and copies it, and the engine owns the copy from
// then on. Mutating a Config (or the structures it points to, such as the
// kernel program's rules) after NewEngine returned is deprecated and
// unsupported — under parallel workers it is also a data race. Use the
// management interface (Engine.Control) to retune a running middlebox.
type Config struct {
	Name string
	Mode Mode
	// Cores is the number of datapath workers (shards). Work spreads
	// across shards by the eAxC RU port, so packets of one antenna-
	// carrier stream stay ordered while distinct streams process in
	// parallel. 0 defaults to 1; values outside [0, MaxCores] are
	// rejected with ErrBadCores.
	Cores int
	// App is the userspace handler (may be nil for a pure-kernel XDP
	// middlebox such as PRB monitoring). See the App documentation for
	// the concurrency contract Handle must meet on multi-core engines.
	App App
	// Kernel is the XDP rule program (ModeXDP only); it must verify.
	Kernel *KernelProgram
	// CarrierPRBs resolves "all PRBs" encodings during payload access.
	CarrierPRBs int
	// Burst tunes the burst-mode datapath: the per-wakeup batch size and
	// kernel fast-path retirement. The zero value keeps the defaults (see
	// BurstPolicy); an out-of-range batch is rejected with ErrBadBatch.
	Burst BurstPolicy
	// RingSize is the per-shard ingress ring capacity, rounded up to a
	// power of two (default DefaultRingSize). The last eighth of a ring is
	// reserved by class — see Ingress.
	RingSize int
	// Supervise tunes the engine-supervision subsystem: App panic
	// isolation with a circuit breaker and the shard stall watchdog (see
	// SupervisePolicy). The zero value disables both — the unsupervised
	// behavior. Out-of-range knobs are rejected with ErrBadPanicBudget /
	// ErrBadCooldown / ErrBadStallAfter.
	Supervise SupervisePolicy
	// Scale selects metro-scale admission: ScalePolicy.WorkSteal replaces
	// the static eAxC→shard hash with per-stream queues drained by a
	// work-stealing worker pool (see ScalePolicy). The zero value keeps
	// the hash layout. Combining it with the shard watchdog is rejected
	// with ErrScaleSupervise.
	Scale ScalePolicy
	// Trace enables the frame-span trace collector: every processed frame
	// leaves a telemetry.Span in its shard's fixed-size ring and feeds the
	// per-stage/per-action latency histograms merged into Snapshot. Off by
	// default — the disabled datapath pays only a nil check per frame.
	Trace bool
	// TraceRing is the per-shard span-ring capacity when Trace is set
	// (default DefaultTraceRing; values above MaxRingSize are rejected
	// with ErrBadRing).
	TraceRing int
}

// Stats are the engine's datapath counters. Obtain them with
// Engine.Snapshot, which merges the per-shard counters race-safely.
type Stats struct {
	RxFrames   uint64
	TxFrames   uint64
	ParseError uint64
	// Kernel program outcomes (ModeXDP).
	KernelTx   uint64
	KernelDrop uint64
	// KernelRetired counts frames the kernel half completed without ever
	// constructing a userspace packet or invoking the App — the A1/A2-only
	// fast path of the burst datapath (a subset of KernelTx+KernelDrop;
	// zero when BurstPolicy.DisableKernelRetire is set).
	KernelRetired uint64
	Punts         uint64 // AF_XDP handoffs to userspace
	// Userspace outcomes.
	AppDrops  uint64
	AppErrors uint64
	// RingDrops counts frames dropped because a shard's ingress ring was
	// full (parallel workers only; the deterministic path drains inline).
	RingDrops uint64
	// ShedUPlane counts U-plane data (and unclassifiable) frames shed at
	// ingress inside a queue's reserved last eighth (see Ingress); PRACH
	// sheds are counted in ShedPRACH.
	ShedUPlane uint64
	// Fault-visibility counters: per-eAxC eCPRI sequence tracking in the
	// shard datapath. SeqGaps accumulates missing sequence numbers,
	// Duplicates counts re-seen ones, Reordered counts late arrivals
	// (delivered, but behind the stream's high-water mark).
	SeqGaps    uint64
	Duplicates uint64
	Reordered  uint64
	// InvalidFrames counts frames whose eCPRI/O-RAN headers decoded but
	// failed validity checks (bad version, unknown plane, undecodable
	// timing) — corrupted input dropped instead of propagated to apps.
	InvalidFrames uint64
	// Supervision counters (SupervisePolicy). AppPanics counts recovered
	// App panics; Quarantined counts frames failed to the wire as raw
	// passthrough because of a panic or an open breaker; ShardRestarts
	// counts hitless watchdog restarts. ShedPRACH counts PRACH frames
	// shed at ingress — only inside the last sixteenth of a queue, after
	// U-plane data (data sheds stay in ShedUPlane).
	AppPanics     uint64
	Quarantined   uint64
	ShardRestarts uint64
	ShedPRACH     uint64
	// Steals counts streams a work-stealing worker took from another
	// worker's deque — regular steal-half batches and hedged pickups of
	// stale stragglers alike (ScalePolicy.WorkSteal; always zero in the
	// hash layout and in deterministic inline mode).
	Steals uint64
	// Health is the engine's degradation state: the worst per-shard state
	// (Add merges with max, not sum).
	Health Health
	// Breaker is the panic circuit breaker's position: the worst
	// per-shard state (Add merges with max — Open dominates Half-Open
	// dominates Closed).
	Breaker BreakerState
	// Trace is the merged trace readout (span count, per-stage and
	// per-action latency histograms) when tracing is enabled, nil
	// otherwise. Add merges readouts histogram-wise.
	Trace *telemetry.TraceStats
}

// Add returns the field-wise sum of s and o — the combinator used to
// merge per-shard or per-engine snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		RxFrames:      s.RxFrames + o.RxFrames,
		TxFrames:      s.TxFrames + o.TxFrames,
		ParseError:    s.ParseError + o.ParseError,
		KernelTx:      s.KernelTx + o.KernelTx,
		KernelDrop:    s.KernelDrop + o.KernelDrop,
		KernelRetired: s.KernelRetired + o.KernelRetired,
		Punts:         s.Punts + o.Punts,
		AppDrops:      s.AppDrops + o.AppDrops,
		AppErrors:     s.AppErrors + o.AppErrors,
		RingDrops:     s.RingDrops + o.RingDrops,
		ShedUPlane:    s.ShedUPlane + o.ShedUPlane,
		SeqGaps:       s.SeqGaps + o.SeqGaps,
		Duplicates:    s.Duplicates + o.Duplicates,
		Reordered:     s.Reordered + o.Reordered,

		InvalidFrames: s.InvalidFrames + o.InvalidFrames,
		AppPanics:     s.AppPanics + o.AppPanics,
		Quarantined:   s.Quarantined + o.Quarantined,
		ShardRestarts: s.ShardRestarts + o.ShardRestarts,
		ShedPRACH:     s.ShedPRACH + o.ShedPRACH,
		Steals:        s.Steals + o.Steals,
		Health:        maxHealth(s.Health, o.Health),
		Breaker:       maxBreaker(s.Breaker, o.Breaker),
		Trace:         mergeTrace(s.Trace, o.Trace),
	}
}

// maxBreaker returns the worse of two breaker states.
func maxBreaker(a, b BreakerState) BreakerState {
	if a > b {
		return a
	}
	return b
}

// mergeTrace combines two optional trace readouts without mutating either.
func mergeTrace(a, b *telemetry.TraceStats) *telemetry.TraceStats {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	m := a.Merge(*b)
	return &m
}

// Engine runs one middlebox over a fronthaul attachment point (a switch
// port or NIC VF). The datapath is sharded: each configured core owns an
// admission queue (single-producer/single-consumer ingress ring, sequence
// table, A3 cache), a latency window and a slice of the counter store,
// keyed by the eAxC RU port (see shard.go for the execution modes).
type Engine struct {
	cfg   Config
	sched *sim.Scheduler
	clock sim.Clock
	pool  *cpu.Pool
	out   func(frame []byte)

	bus      *telemetry.Bus
	counters *telemetry.Counters

	shards []*shard
	// ws is the work-stealing admission pool when ScalePolicy.WorkSteal
	// is set, nil in the classic hash layout. Set at construction, never
	// reassigned — workers and the producer read a stable pointer.
	ws     *wsPool
	serial bool
	// burst is the App's burst-aware extension when it implements
	// BurstApp, nil otherwise (the flush then invokes Handle on groups of
	// one frame).
	burst BurstApp

	// parallel is true while Start'ed workers run. It is written only
	// with no workers alive (before launch, after Stop joined every
	// shard's done channel), so workers and the producer read a stable
	// value.
	parallel bool
	stopc    chan struct{}
}

// sweepEvery bounds how many ingress frames may pass between cache sweeps
// on one shard.
const sweepEvery = 1024

// NewEngine builds and validates an engine. Kernel programs are verified
// here; a program that fails verification refuses to load, like the eBPF
// verifier would. Validation failures wrap the typed errors of errors.go
// (ErrNoApp, ErrBadCores, ErrKernelUnverified, ...) — match with
// errors.Is.
func NewEngine(sched *sim.Scheduler, cfg Config) (*Engine, error) {
	fail := func(err error) (*Engine, error) {
		return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
	}
	if cfg.Cores < 0 || cfg.Cores > MaxCores {
		return fail(fmt.Errorf("%w: %d", ErrBadCores, cfg.Cores))
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.CarrierPRBs <= 0 {
		return fail(ErrBadCarrierPRBs)
	}
	if err := cfg.Burst.validate(); err != nil {
		return fail(err)
	}
	cfg.Burst = cfg.Burst.withDefaults()
	if err := cfg.Supervise.validate(); err != nil {
		return fail(err)
	}
	cfg.Supervise = cfg.Supervise.withDefaults()
	if cfg.Scale.WorkSteal && cfg.Supervise.StallAfter > 0 {
		return fail(ErrScaleSupervise)
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.RingSize > MaxRingSize {
		return fail(fmt.Errorf("%w: %d", ErrBadRing, cfg.RingSize))
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = DefaultTraceRing
	}
	if cfg.TraceRing > MaxRingSize {
		return fail(fmt.Errorf("%w: trace ring %d", ErrBadRing, cfg.TraceRing))
	}
	switch cfg.Mode {
	case ModeDPDK:
		if cfg.App == nil {
			return fail(ErrNoApp)
		}
	case ModeXDP:
		if cfg.Kernel == nil {
			return fail(ErrNoKernel)
		}
		if err := cfg.Kernel.Verify(); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrKernelUnverified, err))
		}
	default:
		return fail(fmt.Errorf("%w: %d", ErrBadMode, cfg.Mode))
	}
	e := &Engine{
		cfg:      cfg,
		sched:    sched,
		clock:    sched,
		pool:     cpu.NewPool(cfg.Cores),
		bus:      telemetry.NewBus(),
		counters: telemetry.NewCounters(cfg.Cores),
	}
	_, e.serial = cfg.App.(SerialApp)
	e.burst, _ = cfg.App.(BurstApp)
	e.shards = make([]*shard, cfg.Cores)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	if cfg.Scale.WorkSteal {
		e.ws = newWSPool(e)
	}
	e.pool.ResetWindows(sched.Now())
	return e, nil
}

// Name returns the configured middlebox name.
func (e *Engine) Name() string { return e.cfg.Name }

// Mode returns the datapath mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Shards returns the number of datapath workers.
func (e *Engine) Shards() int { return len(e.shards) }

// SetOutput attaches the transmit function (e.g. a NIC queue's transmit).
// The contract is the NIC's: the frame is borrowed until the function
// returns — the engine recycles the buffer right after — so a function
// that keeps a frame (a simulated link that delivers it later) must copy
// it. While parallel workers run, the function is called from every worker
// goroutine and must be safe for concurrent use.
func (e *Engine) SetOutput(fn func(frame []byte)) { e.out = fn }

// Bus returns the middlebox telemetry bus.
func (e *Engine) Bus() *telemetry.Bus { return e.bus }

// Snapshot returns a merged, race-safe view of the datapath counters
// across all shards. It may be called while parallel workers run; the
// result is a consistent per-field sum (fields may trail each other by
// in-flight packets, as with any per-CPU counter readout).
func (e *Engine) Snapshot() Stats {
	var s Stats
	for _, sh := range e.shards {
		st := sh.stats.snapshot()
		st.Breaker = BreakerState(sh.brk.state.Load())
		if sh.tracer != nil {
			ts := sh.tracer.Stats()
			st.Trace = &ts
		}
		s = s.Add(st)
	}
	return s
}

// TraceEnabled reports whether the frame-span trace collector is on.
func (e *Engine) TraceEnabled() bool { return e.shards[0].tracer != nil }

// EnableTracing turns the frame-span trace collector on for an engine that
// was built without Config.Trace, giving every shard a span ring of
// ringCap entries (0 means DefaultTraceRing). It is a management-plane
// call: it fails with ErrRunning while parallel workers run, and is a
// no-op on an engine already tracing.
func (e *Engine) EnableTracing(ringCap int) error {
	if e.parallel {
		return fmt.Errorf("core: %s: %w", e.cfg.Name, ErrRunning)
	}
	if ringCap <= 0 {
		ringCap = DefaultTraceRing
	}
	if ringCap > MaxRingSize {
		return fmt.Errorf("core: %s: %w: trace ring %d", e.cfg.Name, ErrBadRing, ringCap)
	}
	e.cfg.Trace = true
	e.cfg.TraceRing = ringCap
	for _, sh := range e.shards {
		if sh.tracer == nil {
			sh.tracer = telemetry.NewTracer(ringCap)
		}
	}
	return nil
}

// TraceSpans returns the retained frame spans of every shard (each shard's
// run oldest-first; order across shards follows shard ids — sort by
// Span.EnqueuedAt, as telemetry.DumpTrace does, for a global timeline).
// It returns nil when tracing is off.
func (e *Engine) TraceSpans() []telemetry.Span {
	var spans []telemetry.Span
	for _, sh := range e.shards {
		if sh.tracer != nil {
			spans = append(spans, sh.tracer.Spans()...)
		}
	}
	return spans
}

// CounterValue returns the merged value of a named shared counter — the
// userspace readout of the kernel program's per-CPU map entries.
func (e *Engine) CounterValue(name string) uint64 { return e.counters.Value(name) }

// CounterNames lists the shared counters that exist, sorted.
func (e *Engine) CounterNames() []string { return e.counters.Names() }

// Control forwards a management command to the App (§3.2's management
// interface). It fails if the App is absent or not controllable.
// Control is a management-plane call: on an engine with running parallel
// workers the App must serialize Control against its Handle path itself.
func (e *Engine) Control(cmd string, args map[string]string) error {
	if c, ok := e.cfg.App.(Controllable); ok {
		return c.Control(cmd, args)
	}
	return fmt.Errorf("core: %s: app does not expose a management interface", e.cfg.Name)
}

// Utilization returns the busiest core's utilization since the last
// ResetMeasurement. Poll-mode engines always report 1.0 (Fig. 16).
func (e *Engine) Utilization() float64 {
	return e.pool.MaxUtilization(e.sched.Now(), e.cfg.Mode == ModeDPDK)
}

// ResetMeasurement starts a fresh utilization/latency window.
func (e *Engine) ResetMeasurement() {
	e.pool.ResetWindows(e.sched.Now())
	for _, sh := range e.shards {
		sh.resetLatency()
	}
}

// LatencyPercentile returns the p-th percentile (0..1) of per-packet
// processing (service) time for a traffic class across all shards, and
// whether samples exist. Queueing delay is excluded — it shows up in
// emission times and therefore in endpoint deadline misses, matching how
// the paper reports Fig. 15b.
func (e *Engine) LatencyPercentile(class TrafficClass, p float64) (time.Duration, bool) {
	var cp []time.Duration
	for _, sh := range e.shards {
		cp = sh.latencySamples(cp, class)
	}
	if len(cp) == 0 {
		return 0, false
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p * float64(len(cp)-1))
	return cp[idx], true
}

// Start launches one worker goroutine per shard: the parallel execution
// mode, for wall-clock throughput on real cores. Virtual time freezes at
// the current instant while workers run, which keeps every virtual-time
// computation deterministic; outputs are emitted synchronously from the
// workers (SetOutput's function must tolerate concurrent calls). Do not
// Start an engine that is attached to a live simulated testbed — the
// fabric expects the deterministic inline mode.
//
// Start fails with ErrSerialApp when a multi-shard engine hosts an App
// that declared itself serial, and with ErrRunning when workers are
// already running.
func (e *Engine) Start() error {
	if e.parallel {
		return fmt.Errorf("core: %s: %w", e.cfg.Name, ErrRunning)
	}
	if e.serial && len(e.shards) > 1 {
		return fmt.Errorf("core: %s: %w", e.cfg.Name, ErrSerialApp)
	}
	e.clock = sim.Frozen(e.sched.Now())
	e.parallel = true
	e.stopc = make(chan struct{})
	for _, sh := range e.shards {
		sh.spawn(e.stopc)
	}
	return nil
}

// Stop halts the parallel workers, draining every accepted frame first,
// and returns the engine to the deterministic inline mode. It is a no-op
// on an engine that was never started. Stop joins each shard's *current*
// worker incarnation; goroutines the watchdog abandoned exit on their
// own when their wedged App call finally returns (see DESIGN.md §6.7) —
// a worker wedged forever without a supervising restart would hang Stop,
// exactly as it would have hung the pre-supervision engine.
func (e *Engine) Stop() {
	if !e.parallel {
		return
	}
	close(e.stopc)
	for _, sh := range e.shards {
		<-sh.done
	}
	e.parallel = false
	e.clock = e.sched
}

// route resolves a frame to its admission queue — the one place the two
// layouts differ on the producer side. Work stealing interns a queue per
// full eAxC. The hash layout keys the shard's pinned queue on the RU port,
// the low nibble of the eAxC wire form: packets sharing an RU port always
// land on the same shard (per-antenna spreading, §6.4.1), and keying on the
// nibble rather than the full id keeps every packet that can share an A3
// cache entry (RU-sharing tenants address the same RU port from different
// DU ports) on one queue. Frames with no readable eAxC go to shard 0,
// whose full decode will count the parse error.
func (e *Engine) route(frame []byte) *streamQ {
	if e.ws != nil {
		return e.ws.stream(frame)
	}
	if len(e.shards) == 1 {
		return e.shards[0].q
	}
	eaxc, ok := fh.PeekEAxC(frame)
	if !ok {
		return e.shards[0].q
	}
	return e.shards[int(eaxc&0xf)%len(e.shards)].q
}

// ingress is the one admission path: route, shed rule, stamped push, then
// an inline drain through the queue's home worker or, under Start, a wake.
// account selects the Ingress semantics — the shed rule applies and every
// refusal is counted on the home shard; without it (TryIngress) only a
// full ring refuses and nothing is counted.
//
// The shed rule reserves the last eighth of the queue by traffic class,
// in integer arithmetic on the queue's own capacity (nothing on rings
// under 8 slots): U-plane data and unclassifiable frames are shed once the
// free slots fall to the reserve, PRACH only once they fall to half of it,
// C-plane never. A U-plane loss costs one symbol of IQ and a PRACH loss one
// access attempt, but a C-plane loss wedges a slot's schedule — so C-plane
// is only ever refused by a completely full ring.
func (e *Engine) ingress(frame []byte, account bool) bool {
	q := e.route(frame)
	home := q.home
	if account {
		free, reserve := len(q.in.buf)-q.in.queued(), len(q.in.buf)/8
		if reserve > 0 && free <= reserve {
			switch plane, prach := fh.PeekShedClass(frame); {
			case plane == fh.PlaneC:
			case !prach:
				home.stats.shedUPlane.Add(1)
				return false
			case free <= reserve/2:
				home.stats.shedPRACH.Add(1)
				return false
			}
		}
	}
	// The enqueue stamp feeds the trace collector only; untraced frames
	// skip the clock read and the stale stamp is never consumed.
	var at sim.Time
	if home.tracer != nil {
		at = home.now()
	}
	if !q.in.push(frame, at) {
		if account {
			home.stats.ringDrops.Add(1)
		}
		return false
	}
	if !e.parallel {
		// Deterministic inline mode: drain the queue on the spot through
		// its home worker — seeded runs replay bit-identically.
		home.w.drainStream(q, len(q.in.buf))
		return true
	}
	if e.ws != nil {
		e.ws.publish(q)
	}
	home.wakeUp()
	return true
}

// Ingress is the receive entry point; wire it to a fabric port handler.
// Like a NIC RX queue it has a single-producer contract: calls must not
// overlap (the simulated fabric delivers from the scheduler goroutine,
// which guarantees this). In deterministic mode the frame is processed
// inline; under parallel workers it is enqueued on its queue's ring.
// When a ring nears overflow, admission degrades gracefully: inside the
// last eighth of the ring U-plane data is shed (Stats.ShedUPlane), inside
// the last sixteenth PRACH too (Stats.ShedPRACH), to keep room for
// C-plane, and only a completely full ring drops a frame unconditionally
// (Stats.RingDrops) — as a saturated NIC queue would. Every frame handed
// to Ingress is therefore accounted for as processed, shed, or
// ring-dropped.
//
//ranvet:detpath
//ranvet:goroutine producer
func (e *Engine) Ingress(frame []byte) { e.ingress(frame, true) }

// TryIngress is the backpressure variant of Ingress for producers that
// prefer retry over drop: it reports whether the frame was accepted,
// refuses only on a full ring, and never counts a drop.
//
//ranvet:detpath
//ranvet:goroutine producer
func (e *Engine) TryIngress(frame []byte) bool { return e.ingress(frame, false) }

// runKernel evaluates the rule program on w's shard. It returns the
// verdict, the CPU cost of the evaluation, and the packets to transmit
// on VerdictTx.
func (e *Engine) runKernel(w *worker, pkt *fh.Packet) (KernelVerdict, time.Duration, []*fh.Packet) {
	sh := w.sh
	t, err := pkt.Timing()
	if err != nil {
		return VerdictDrop, cpu.CostKernelRule, nil
	}
	var cost time.Duration
	for i := range e.cfg.Kernel.Rules {
		r := &e.cfg.Kernel.Rules[i]
		cost += cpu.CostKernelRule
		if !r.Match.Matches(pkt, t) {
			continue
		}
		if r.Exponents != nil {
			seen, used := scanExponents(w, pkt, e.cfg.CarrierPRBs, r.Exponents, t)
			cost += cpu.ExponentScanCost(seen)
			// Constant names: concatenating per frame would allocate.
			seenName, usedName := "prb.seen.dl", "prb.utilized.dl"
			if t.Direction == 0 {
				seenName, usedName = "prb.seen.ul", "prb.utilized.ul"
			}
			w.counter(seenName).Add(sh.id, uint64(seen))
			w.counter(usedName).Add(sh.id, uint64(used))
		}
		switch r.Verdict {
		case VerdictDrop:
			return VerdictDrop, cost, nil
		case VerdictPass:
			return VerdictPass, cost, nil
		case VerdictTx:
			// The emit list lives in a per-shard scratch buffer: process
			// hands it to emitAll before the next frame, so the backing
			// array is reused instead of reallocated per Tx verdict.
			sh.kernelEmits = sh.kernelEmits[:0]
			for j := range r.Mirrors {
				cp := w.pool.Clone(pkt)
				r.Mirrors[j].apply(cp)
				cost += cpu.CostReplicate + cpu.CostHeaderMod
				w.sh.kernelEmits = append(w.sh.kernelEmits, cp)
			}
			if r.Rewrite != nil {
				r.Rewrite.apply(pkt)
				cost += cpu.CostHeaderMod
				w.sh.kernelEmits = append(w.sh.kernelEmits, pkt)
			}
			cost += cpu.CostKernelTx
			return VerdictTx, cost, sh.kernelEmits
		}
	}
	return VerdictPass, cost, nil
}
