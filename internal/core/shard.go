package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/cpu"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// The sharded datapath (§5, §6.4.1: "each CPU core handles only a subset
// of the RU antennas"): the engine owns one shard per configured core,
// and every frame is steered to the shard owning its eAxC RU port. A
// shard has its own admission queue (ring, sequence table, A3 cache — see
// streamQ), CPU core, latency window and counters, so distinct antenna-
// carrier streams process in parallel with no shared mutable state while
// packets of one stream stay in FIFO order.
//
// Two execution modes share the shard code path:
//
//   - deterministic (the default): Ingress drains the shard's ring inline
//     on the caller's goroutine. Under the discrete-event scheduler this
//     reproduces the seed semantics exactly — virtual-time parallelism
//     across cores, bit-identical runs. Inline drains always see bursts of
//     one frame, so every invocation group is a single frame.
//   - parallel (Start/Stop): one worker goroutine per shard drains its
//     ring in bursts of up to BurstPolicy.Batch frames per poll, for real
//     wall-clock parallelism. Virtual time is frozen while workers run.
//
// The burst pipeline (DESIGN.md §6.6) runs in two halves. processBurst
// decodes each dequeued frame into the shard's pooled packet scratch and
// lets the kernel program retire A1/A2-only frames on the spot; frames
// bound for userspace are parked on the pend list. flushApp then delivers
// the parked frames in invocation groups — the whole list in one
// HandleBurst call for a BurstApp, one frame per Handle call otherwise —
// through a single flushGroup/invoke, and a retired frame always flushes
// the parked frames first, so kernel completions never overtake userspace
// completions and per-stream FIFO order survives mixed verdicts.

// ring is a bounded single-producer/single-consumer frame queue — the
// software equivalent of a per-core NIC RX descriptor ring. push is safe
// only from one producer goroutine, pop/popN only from one consumer; the
// two may run concurrently.
type ring struct {
	buf [][]byte
	// ts is the enqueue-timestamp sidecar for the trace collector: slot i
	// carries the virtual instant buf[i] was pushed. It shares the ring's
	// SPSC discipline (the producer stamps before publishing tail, the
	// consumer reads before advancing head), so tracing adds one store to
	// push and no synchronization.
	ts   []sim.Time
	mask uint64

	head atomic.Uint64 // consumer cursor: next slot to pop
	_    [56]byte      // keep the cursors on separate cache lines
	tail atomic.Uint64 // producer cursor: next slot to fill
	_    [56]byte
}

// newRing allocates a ring with capacity rounded up to a power of two.
func newRing(size int) *ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{buf: make([][]byte, n), ts: make([]sim.Time, n), mask: uint64(n - 1)}
}

// push enqueues a frame stamped with its arrival instant, reporting false
// when the ring is full.
//
//ranvet:spsc produce
func (r *ring) push(frame []byte, at sim.Time) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = frame
	r.ts[t&r.mask] = at
	r.tail.Store(t + 1)
	return true
}

// pop dequeues the oldest frame and its enqueue stamp, reporting false
// when the ring is empty.
//
//ranvet:spsc consume
func (r *ring) pop() ([]byte, sim.Time, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil, 0, false
	}
	f := r.buf[h&r.mask]
	at := r.ts[h&r.mask]
	r.buf[h&r.mask] = nil
	r.head.Store(h + 1)
	return f, at, true
}

// popN bulk-dequeues up to len(frames) queued frames and their enqueue
// stamps into the caller's vectors, returning how many were dequeued. One
// head load, one publish: the burst equivalent of a NIC RX burst read,
// paying the cross-core cursor synchronization once per vector instead of
// once per frame.
//
//ranvet:spsc consume
func (r *ring) popN(frames [][]byte, stamps []sim.Time) int {
	h := r.head.Load()
	n := int(r.tail.Load() - h)
	if n == 0 {
		return 0
	}
	if n > len(frames) {
		n = len(frames)
	}
	for i := 0; i < n; i++ {
		idx := (h + uint64(i)) & r.mask
		frames[i] = r.buf[idx]
		stamps[i] = r.ts[idx]
		r.buf[idx] = nil
	}
	r.head.Store(h + uint64(n))
	return n
}

// queued reports how many frames are waiting (approximate under
// concurrent access).
func (r *ring) queued() int { return int(r.tail.Load() - r.head.Load()) }

// streamQ is the engine's one admission queue type: an SPSC ingress ring
// plus the state that belongs to the frames queued on it rather than to
// whichever worker drains them. The hash layout pins one to each shard
// (shard.q); the work-stealing pool interns one per eAxC (wsteal.go), and
// state and queuedAt matter only there.
type streamQ struct {
	// home is the shard that counts the queue's admission outcomes, whose
	// worker drains it inline in deterministic mode, and — under work
	// stealing — whose deque the producer publishes it to.
	home *shard
	in   *ring
	// state is the idle/queued/running machine documented in wsteal.go.
	//
	//ranvet:statemach wsIdle->wsQueued wsQueued->wsRunning wsRunning->wsQueued wsRunning->wsIdle
	state atomic.Uint32
	// queuedAt is the pool poll-epoch when the stream was last published
	// — the staleness clock for hedged pickup.
	queuedAt atomic.Uint64
	// seq holds the last eCPRI sequence number seen per source stream —
	// the middlebox-side view of a Builder's per-eAxC counter — and cache
	// is the A3 store. The draining worker swaps both in (drainStream);
	// between workers the handoff is ordered by the deque mutex.
	seq   map[seqKey]uint8
	cache *Cache
}

// cacheMaxAge bounds how long an A3 entry may wait for its key's other
// packets before a sweep reclaims it: two slots at 30 kHz numerology.
const cacheMaxAge = time.Millisecond

func newStreamQ(home *shard, ringSize int) *streamQ {
	return &streamQ{home: home, in: newRing(ringSize), seq: make(map[seqKey]uint8), cache: NewCache(cacheMaxAge)}
}

// shardStats is the atomic mirror of Stats one shard accumulates. The
// owning worker writes the datapath counters; ringDrops, shedUPlane and
// shedPRACH are written by the producer (Ingress). Snapshot merges all
// shards.
type shardStats struct {
	rxFrames, txFrames, parseError  atomic.Uint64
	kernelTx, kernelDrop, punts     atomic.Uint64
	kernelRetired                   atomic.Uint64
	appDrops, appErrors, ringDrops  atomic.Uint64
	shedUPlane, seqGaps, duplicates atomic.Uint64
	reordered, invalidFrames        atomic.Uint64
	appPanics, quarantined          atomic.Uint64
	shardRestarts, shedPRACH        atomic.Uint64
	steals                          atomic.Uint64
	// health is the graceful-degradation ladder (health.go): escalation
	// may skip levels, recovery steps through Degraded one window at a
	// time, and a supervisor restart lands on Stalled.
	//
	//ranvet:statemach Healthy->Degraded Healthy->Stalled Degraded->Stalled Degraded->Healthy Stalled->Degraded
	health atomic.Uint32
}

func (s *shardStats) snapshot() Stats {
	return Stats{
		RxFrames:      s.rxFrames.Load(),
		TxFrames:      s.txFrames.Load(),
		ParseError:    s.parseError.Load(),
		KernelTx:      s.kernelTx.Load(),
		KernelDrop:    s.kernelDrop.Load(),
		KernelRetired: s.kernelRetired.Load(),
		Punts:         s.punts.Load(),
		AppDrops:      s.appDrops.Load(),
		AppErrors:     s.appErrors.Load(),
		RingDrops:     s.ringDrops.Load(),
		ShedUPlane:    s.shedUPlane.Load(),
		SeqGaps:       s.seqGaps.Load(),
		Duplicates:    s.duplicates.Load(),
		Reordered:     s.reordered.Load(),

		InvalidFrames: s.invalidFrames.Load(),
		AppPanics:     s.appPanics.Load(),
		Quarantined:   s.quarantined.Load(),
		ShardRestarts: s.shardRestarts.Load(),
		ShedPRACH:     s.shedPRACH.Load(),
		Steals:        s.steals.Load(),
		Health:        Health(s.health.Load()),
	}
}

// pendFrame is one decoded frame parked between the kernel half of the
// burst pipeline and the userspace flush: the fresh packet plus everything
// the flush needs to charge and trace it (the costs accrued so far, its
// identity class, and its timestamps).
type pendFrame struct {
	pkt     *fh.Packet
	class   TrafficClass
	enq     sim.Time
	arrival sim.Time
	// decode is the frame's parse(+driver) cost, without the interrupt-
	// wake surcharge — that is resolved at charge time (see chargeStart).
	// kernel includes the rule-program evaluation and, for punts, the
	// AF_XDP handoff.
	decode, kernel time.Duration
}

// shard is one worker's slice of the datapath: the shared half — pinned
// queue, stats, health, latency windows, supervision state — that
// survives worker restarts. The scratch an App can reach through
// its Context lives on the worker incarnation instead (see worker), so
// a wedged goroutine abandoned by the watchdog can never race a fresh
// incarnation on shared mutable state.
type shard struct {
	id   int
	eng  *Engine
	core *cpu.Core
	// q is the admission queue pinned to this shard in the hash layout:
	// route steers every frame of the shard's RU ports onto it, and only
	// this shard's worker drains it. nil under work stealing, where queues
	// are interned per eAxC and any worker may run them (wsteal.go).
	q *streamQ
	// lastRing / lastFaults are the counter totals at the previous health
	// window boundary (consumer goroutine only; see updateHealth).
	lastRing, lastFaults uint64
	// tracer is the shard's trace instrument (span ring + stage/action
	// histograms), nil when tracing is off. Set at construction or by
	// Engine.EnableTracing (never while workers run), so both the producer
	// (enqueue stamping) and the consumer read a stable pointer.
	tracer *telemetry.Tracer

	stats shardStats
	latMu sync.Mutex
	lat   [classCount][]time.Duration

	// kpkt is the shard's decode scratch: every frame is dissected into it
	// first, and only frames that cross into userspace are copied out to a
	// Packet of the worker's pool. Kernel-retired and passthrough frames
	// live and die in this scratch and never touch the pool. It is safe to
	// keep on the shard across restarts: an abandoned worker executes no
	// datapath code after retirement, and the App never sees it.
	kpkt fh.Packet
	// burstFrames/burstTs receive each popN vector; pend parks decoded
	// userspace-bound frames until the flush; spanBuf collects the
	// burst's spans for one batched Tracer record. All are consumer-
	// goroutine scratch sized by BurstPolicy.Batch and reused burst after
	// burst (a fresh worker incarnation resets them before use).
	burstFrames [][]byte
	burstTs     []sim.Time
	pend        []pendFrame
	spanBuf     []telemetry.Span
	// passthrough and kernelEmits are consumer-goroutine scratch for the
	// kernel-only paths: both are handed to emitAll and fully consumed
	// before the next frame, so the storage is reused, never reallocated.
	passthrough [1]*fh.Packet
	kernelEmits []*fh.Packet
	// stealBuf is the worker's steal scratch (work-stealing layout only):
	// one steal's stream pointers pass through here between the victim
	// unlock and the own-deque append, reused steal after steal.
	stealBuf []*streamQ

	// w is the current worker incarnation. Written at construction and by
	// restartShard (scheduler goroutine, under superMu); read by the
	// producer (inline drains, supervision polls) on the same goroutine,
	// so no synchronization is needed — parallel workers never read it.
	w *worker
	// epoch is bumped by restartShard; a worker whose epoch trails it is
	// abandoned and unwinds at its next guard step (see worker.appExit).
	epoch atomic.Uint32
	// superMu is the supervision guard: a watchdog-guarded worker holds
	// it for all datapath work, releasing it only around App invocations
	// and its idle block — exactly the windows a restart may interleave.
	superMu sync.Mutex
	// done closes when the current worker incarnation's goroutine exits;
	// Stop waits on it. Replaced (with sh.w) on restart.
	done chan struct{}
	// brk is the per-shard circuit breaker; it survives restarts.
	brk breaker
	// wdLastSeq / wdSince are the watchdog's observation state: the app-
	// invocation counter being watched (0 = none) and the sim.Monotonic
	// instant it was first seen unfinished (supervisor goroutine only).
	wdLastSeq uint64
	wdSince   sim.Time

	wake chan struct{}
}

// worker is one incarnation of a shard's consumer: everything an App can
// reach through its Context — the reusable context itself, the running
// queue's A3 cache, the transcoder and message scratch, the resolved-
// counter map — plus the supervision bookkeeping that decides this
// incarnation's fate. A hitless restart abandons the whole incarnation
// and builds a fresh one, so the wedged goroutine (still inside Handle)
// can keep touching its own scratch without racing the replacement.
type worker struct {
	sh  *shard
	eng *Engine
	// epoch is the shard epoch this incarnation was built under; once the
	// shard moves on, the incarnation's next guard step unwinds it.
	epoch uint32
	// guarded is set at run() entry when the watchdog is enabled: the
	// worker then brackets App invocations and idle blocks with the
	// supervision mutex. Inline drains (deterministic mode, whitebox
	// tests) never set it and pay no synchronization.
	guarded bool
	// isolate is set when SupervisePolicy.PanicBudget > 0 and an App is
	// configured: App invocations run under a recover and feed the
	// circuit breaker.
	isolate bool
	// appSeq / appDone are the watchdog's progress counters: appSeq
	// increments entering an App invocation, appDone leaving it. Stuck
	// means appSeq != appDone, appSeq unchanged for StallAfter of wall time.
	appSeq, appDone atomic.Uint64
	// seq and cache are the sequence table and A3 store of the queue this
	// worker is draining, swapped in by drainStream. Every packet that can
	// touch a cache key is routed to the key's queue and a queue has one
	// drainer at a time, so neither ever locks. An abandoned incarnation
	// keeps the pointers it was wedged with; restartShard gives the queue a
	// fresh cache, so the two never share one.
	seq   map[seqKey]uint8
	cache *Cache
	// pool is the incarnation's frame pool: every Packet and frame buffer
	// the engine makes for this worker's frames is drawn from it and given
	// back at one of four points — the end of the App invocation, a kernel
	// completion, a cache sweep, and after the output function returned
	// (DESIGN.md §6.10). A restart abandons it with the incarnation; under
	// work stealing a packet cached by one worker is released into the
	// pool of whichever worker empties the entry.
	pool *fh.Pool
	// live lists what the App invocation in flight was handed or obtained
	// from its Context (each packet once: markLive); releaseLive gives back
	// what the A3 cache did not keep.
	live []*fh.Packet

	// ctx is the worker's reusable app context. The App contract (see
	// Context) says the value is valid only for the duration of Handle,
	// so the single consumer goroutine resets and hands out the same
	// allocation for every frame; only the emits backing array survives
	// a reset, trimmed to length zero.
	ctx Context
	// counters caches resolved handles into the engine's striped store;
	// the map is incarnation-owned, so the hot path pays no lock after
	// the first use of a name.
	counters map[string]*telemetry.Counter
	// txc is the incarnation's BFP transcode scratch, pre-sized to the
	// carrier: payload arena, merge source list and exponent buffer for
	// the A4 decode → modify → re-encode cycle, reused frame after frame
	// (handed to apps via Context.Transcoder).
	txc *bfp.Transcoder
	// msgs are reusable U-plane message decode slots (the section slices
	// inside are recycled by oran.UPlaneMsg.DecodeFromBytes). Slot 0 is
	// the kernel/app decode scratch, slot 1 the re-encode staging message;
	// handed to apps via Context.UPlaneScratch.
	msgs [2]oran.UPlaneMsg
	// modU and modC are the message scratch of Context.ModifyUPlane and
	// ModifyCPlane, apart from msgs so the callback may use those.
	modU oran.UPlaneMsg
	modC oran.CPlaneMsg
	// burstPkts is the packet vector of the invocation group in flight,
	// resliced per group, never grown. It is what the App is handed and
	// all the flush reads of the group while the supervision window is
	// open — hence per-incarnation: a restart resets the shard's pend
	// list under a preempted worker, never this.
	burstPkts []*fh.Packet
}

func newShard(e *Engine, id int) *shard {
	batch := e.cfg.Burst.Batch
	sh := &shard{
		id:          id,
		eng:         e,
		core:        e.pool.Core(id),
		burstFrames: make([][]byte, batch),
		burstTs:     make([]sim.Time, batch),
		pend:        make([]pendFrame, 0, batch),
		wake:        make(chan struct{}, 1),
	}
	if e.cfg.Scale.WorkSteal {
		sh.stealBuf = make([]*streamQ, wsStealMax)
	} else {
		sh.q = newStreamQ(sh, e.cfg.RingSize)
	}
	if e.cfg.Trace {
		sh.tracer = telemetry.NewTracer(e.cfg.TraceRing)
		sh.spanBuf = make([]telemetry.Span, 0, batch)
	}
	sh.w = newWorker(sh)
	return sh
}

// newWorker builds a fresh worker incarnation for sh at the shard's
// current epoch, with its own app-reachable scratch, and resets the
// shard-level burst scratch the previous incarnation may have left
// mid-burst.
func newWorker(sh *shard) *worker {
	e := sh.eng
	w := &worker{
		sh:       sh,
		eng:      e,
		epoch:    sh.epoch.Load(),
		isolate:  e.cfg.Supervise.PanicBudget > 0 && e.cfg.App != nil,
		counters: make(map[string]*telemetry.Counter),
		txc:      bfp.NewTranscoder(),
		pool:     fh.NewPool(),
	}
	w.txc.Reserve(e.cfg.CarrierPRBs)
	w.burstPkts = make([]*fh.Packet, 0, e.cfg.Burst.Batch)
	for i := range sh.pend {
		sh.pend[i].pkt = nil
	}
	sh.pend = sh.pend[:0]
	sh.spanBuf = sh.spanBuf[:0]
	return w
}

// spawn launches the current worker incarnation's goroutine and arms the
// done channel Stop waits on. Called by Start for the initial workers
// and by restartShard for replacements.
func (sh *shard) spawn(stop <-chan struct{}) {
	done := make(chan struct{})
	sh.done = done
	w := sh.w
	ws := sh.eng.ws != nil
	go func() {
		defer close(done)
		if ws {
			w.runWS(stop)
		} else {
			w.run(stop)
		}
	}()
}

// seqKey identifies one eCPRI sequence stream at a middlebox: each
// transmitter (source MAC) increments an independent SeqID per eAxC.
type seqKey struct {
	src  eth.MAC
	eaxc uint16
}

// trackSeq runs gap detection over the packet's eCPRI sequence number.
// uint8 arithmetic classifies the delta from the stream's last number:
// 0 is a duplicate, 1 in-order, 2..127 a forward jump (delta-1 frames
// missing), >=128 a late frame overtaken by successors (reordered; the
// high-water mark is kept). The table written is the running queue's (see
// worker.seq), so the map never needs a lock in either layout.
func (w *worker) trackSeq(pkt *fh.Packet) {
	sh := w.sh
	key := seqKey{src: pkt.Eth.Src, eaxc: pkt.Ecpri.PcID.Uint16()}
	seq := pkt.Ecpri.SeqID
	last, ok := w.seq[key]
	if !ok {
		w.seq[key] = seq
		return
	}
	switch delta := seq - last; {
	case delta == 0:
		sh.stats.duplicates.Add(1)
	case delta == 1:
		w.seq[key] = seq
	case delta < 128:
		sh.stats.seqGaps.Add(uint64(delta) - 1)
		w.seq[key] = seq
	default:
		sh.stats.reordered.Add(1)
	}
}

// valid guards the datapath against corrupted input: a frame whose
// headers decoded but carry an impossible eCPRI version, an unknown
// plane, or an undecodable radio-application header is counted in
// InvalidFrames and dropped rather than propagated into apps.
func (sh *shard) valid(pkt *fh.Packet) bool {
	if pkt.Ecpri.Version != 1 || pkt.Plane() == fh.PlaneUnknown {
		return false
	}
	_, err := pkt.Timing()
	return err == nil
}

// now reads the shard's time source: the scheduler clock in deterministic
// mode, a frozen instant while parallel workers run.
func (sh *shard) now() sim.Time { return sh.eng.clock.Now() }

func (w *worker) counter(name string) *telemetry.Counter {
	c := w.counters[name]
	if c == nil {
		c = w.eng.counters.Get(name)
		w.counters[name] = c
	}
	return c
}

// wakeUp nudges the shard's worker; a single buffered token makes the
// notification lossless without blocking the producer.
func (sh *shard) wakeUp() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// drainStream is the one consumer loop over an admission queue — the
// shard's pinned one in the hash layout, a claimed stream's under work
// stealing: it swaps the queue's sequence table and A3 cache in, processes
// up to max queued frames in bursts and reports how many ran. The
// deterministic inline drain passes the ring's capacity; the ring then
// holds at most the frame ingress just admitted, so every burst is a
// single frame.
func (w *worker) drainStream(q *streamQ, max int) int {
	sh := w.sh
	w.seq, w.cache = q.seq, q.cache
	total := 0
	for total < max {
		want := max - total
		if want > len(sh.burstFrames) {
			want = len(sh.burstFrames)
		}
		//ranvet:allow spscsingle mode-exclusive: the producer goroutine reaches drainStream only through the deterministic inline drain of ingress, which runs only while no worker is spawned
		n := q.in.popN(sh.burstFrames[:want], sh.burstTs[:want])
		if n == 0 {
			break
		}
		w.processBurst(sh.burstFrames[:n], sh.burstTs[:n])
		total += n
	}
	return total
}

// run is the parallel-mode worker loop of the hash layout: burst dequeue
// to amortize the wakeup, block on the first empty poll, final-drain on
// stop so no accepted frame is lost. With the watchdog enabled the loop
// runs under the supervision guard: the mutex is held for all datapath
// work and released only around App invocations and the idle block, so a
// restart can only interleave at those points.
//
//ranvet:hotpath
//ranvet:goroutine shard-worker
func (w *worker) run(stop <-chan struct{}) {
	w.guarded = w.eng.cfg.Supervise.StallAfter > 0
	defer w.retire()
	if w.guarded {
		w.sh.superMu.Lock()
	}
	q, batch := w.sh.q, w.eng.cfg.Burst.Batch
	for {
		if w.drainStream(q, batch) > 0 {
			continue
		}
		w.pauseGuard()
		select {
		case <-w.sh.wake:
			w.resumeGuard()
		case <-stop:
			w.resumeGuard()
			for w.drainStream(q, batch) > 0 {
			}
			return
		}
	}
}

// retire is the worker goroutine's exit hatch. A normal return releases
// the supervision guard; the errShardRetired sentinel (thrown by a guard
// step that found the shard's epoch moved on) exits quietly — the guard
// was already released and a fresh incarnation owns the shard; any other
// panic is a real App panic with isolation off and crashes as before.
func (w *worker) retire() {
	r := recover()
	g := w.guarded
	w.guarded = false
	switch r {
	case nil:
		if g {
			w.sh.superMu.Unlock()
		}
	case errShardRetired:
		// Abandoned: the supervisor restarted the shard while this
		// incarnation was wedged. Nothing to release, nothing to drain.
	default:
		panic(r)
	}
}

// appEnter opens a guarded worker's App-invocation window: progress is
// published for the watchdog and the supervision guard is released so a
// restart can claim the shard if this invocation never returns.
func (w *worker) appEnter() {
	w.appSeq.Add(1)
	w.pauseGuard()
}

// appExit closes the window: the guard is re-acquired — if the shard moved
// to a new epoch while the App ran, this incarnation is abandoned and
// unwinds via errShardRetired — and the invocation is published as done.
func (w *worker) appExit() {
	w.resumeGuard()
	w.appDone.Add(1)
}

// pauseGuard / resumeGuard release and re-acquire the supervision guard
// around the two windows a restart may interleave: App invocations
// (appEnter/appExit) and the idle block, which leaves the progress
// counters alone — an idle worker is not stuck.
func (w *worker) pauseGuard() {
	if w.guarded {
		w.sh.superMu.Unlock()
	}
}

func (w *worker) resumeGuard() {
	if !w.guarded {
		return
	}
	w.sh.superMu.Lock()
	if w.sh.epoch.Load() != w.epoch {
		w.sh.superMu.Unlock()
		panic(errShardRetired)
	}
}

// processBurst runs one dequeued vector of frames through the datapath.
// Per-burst overhead is paid once here — the rxFrames counter add, the
// clock read, and the cache-sweep / health cadence checks (which fire when
// the burst crosses a cadence boundary, exactly the frames the per-frame
// modulo checks used to fire on) — then each frame runs the kernel half
// inline and the userspace half is flushed at burst end.
func (w *worker) processBurst(frames [][]byte, stamps []sim.Time) {
	sh := w.sh
	n := uint64(len(frames))
	rx := sh.stats.rxFrames.Add(n)
	now := sh.now()
	if rx/sweepEvery != (rx-n)/sweepEvery {
		w.cache.sweep(now, w.pool)
	}
	if rx/healthWindow != (rx-n)/healthWindow {
		sh.updateHealth()
	}
	for i, frame := range frames {
		w.processOne(frame, stamps[i], now)
	}
	w.flushApp()
	sh.flushSpans()
}

// processOne runs one frame of a burst through decode and the kernel
// half. Frames the kernel retires (Tx/Drop) or that bypass userspace
// (no App) complete here against the shard's decode scratch; frames bound
// for the App are copied to a packet of the worker's pool and parked on the
// pend list for flushApp. enq is the frame's ingress-ring
// enqueue stamp (meaningful only while the trace collector is on); now is
// the burst's arrival instant.
func (w *worker) processOne(frame []byte, enq, now sim.Time) {
	sh := w.sh
	e := w.eng
	kpkt := &sh.kpkt
	if err := kpkt.Decode(frame); err != nil {
		sh.stats.parseError.Add(1)
		return
	}
	if !sh.valid(kpkt) {
		// Dropped wholesale, untracked: a corrupted header's SeqID is not
		// trustworthy, and the stream's next clean frame will surface the
		// consumed sequence number as a gap.
		sh.stats.invalidFrames.Add(1)
		return
	}
	w.trackSeq(kpkt)
	decodeCost := cpu.CostParse
	if e.cfg.Mode == ModeXDP {
		decodeCost += cpu.CostKernelDriver
	}

	class := Classify(kpkt)
	var kernelCost time.Duration
	pkt := kpkt
	if e.cfg.Mode == ModeXDP {
		if e.cfg.Burst.DisableKernelRetire {
			// Pre-burst semantics: every kernel verdict operates on a
			// userspace packet.
			pkt = w.pool.Get()
			*pkt = sh.kpkt
		}
		verdict, kCost, emits := e.runKernel(w, pkt)
		kernelCost = kCost
		switch verdict {
		case VerdictTx:
			// A kernel completion must not overtake parked userspace
			// frames of the same burst: flush them first, then emit.
			w.flushApp()
			sh.stats.kernelTx.Add(1)
			if pkt == kpkt {
				sh.stats.kernelRetired.Add(1)
			}
			start, decode := sh.chargeStart(now, decodeCost)
			cost := decode + kernelCost
			fin := sh.core.Charge(start, cost)
			sh.recordLatency(class, cost)
			sh.stampSpan(pkt, class, enq, start, fin, decode, kernelCost, 0, 0, nil)
			w.emitAll(emits, fin)
			w.retireKernel(pkt, emits)
			return
		case VerdictDrop:
			w.flushApp()
			sh.stats.kernelDrop.Add(1)
			if pkt == kpkt {
				sh.stats.kernelRetired.Add(1)
			}
			start, decode := sh.chargeStart(now, decodeCost)
			fin := sh.core.Charge(start, decode+kernelCost)
			sh.stampSpan(pkt, class, enq, start, fin, decode, kernelCost, 0, 0, nil)
			w.retireKernel(pkt, nil)
			return
		default:
			sh.stats.punts.Add(1)
			// The AF_XDP handoff belongs to the kernel stage: it is the
			// cost of leaving it.
			kernelCost += cpu.CostAFXDPHandoff
		}
	}
	if e.cfg.App == nil {
		// Pure-kernel middlebox with no userspace half: passed packets
		// continue unmodified (the XDP program returned PASS). Nothing
		// retains the packet, so the pooled scratch is emitted directly.
		start, decode := sh.chargeStart(now, decodeCost)
		cost := decode + kernelCost + cpu.CostForward
		fin := sh.core.Charge(start, cost)
		sh.recordLatency(class, cost)
		sh.stampSpan(pkt, class, enq, start, fin, decode, kernelCost, 0, 0, nil)
		sh.passthrough[0] = pkt
		w.emitAll(sh.passthrough[:], fin)
		w.retireKernel(pkt, nil)
		return
	}
	if pkt == kpkt {
		// The packet crosses into userspace, where the A3 cache may keep
		// it beyond this burst, so it needs a Packet of its own.
		pkt = w.pool.Get()
		*pkt = sh.kpkt
	}
	w.sh.pend = append(w.sh.pend, pendFrame{
		pkt: pkt, class: class, enq: enq, arrival: now,
		decode: decodeCost, kernel: kernelCost,
	})
}

// chargeStart resolves one frame's service start and final decode cost at
// charge time: the interrupt-wake surcharge of the XDP path applies only
// when the core is genuinely idle at arrival. The first charged frame of
// a wakeup pushes busyUntil past the burst's arrival instant, so followers
// see a busy core and the wake is paid once per wakeup batch.
func (sh *shard) chargeStart(arrival sim.Time, decode time.Duration) (sim.Time, time.Duration) {
	start := sh.core.Acquire(arrival)
	if sh.eng.cfg.Mode == ModeXDP && start == arrival && sh.core.BusyUntil() < arrival {
		decode += cpu.CostInterruptWake
	}
	return start, decode
}

// flushApp delivers the burst's parked userspace frames. The pend list is
// empty between bursts and after any kernel completion, and every kernel-
// retired frame asks, so this is only the guard: it must stay inlinable.
func (w *worker) flushApp() {
	if len(w.sh.pend) != 0 {
		w.flushPend()
	}
}

// flushPend walks the pend list in invocation groups — the whole list for
// a BurstApp, one frame at a time otherwise — so a plain App keeps the
// per-frame contract: a Context, a charge, an error count and a breaker
// check per frame, in frame order.
func (w *worker) flushPend() {
	sh := w.sh
	if w.eng.burst != nil {
		w.flushGroup(sh.pend)
	} else {
		for i := range sh.pend {
			w.flushGroup(sh.pend[i : i+1])
		}
	}
	for i := range sh.pend {
		sh.pend[i].pkt = nil
	}
	sh.pend = sh.pend[:0]
}

// flushGroup runs one App invocation over a group of parked frames. The
// group shares one Context; its app-stage cost and action attribution are
// split equally across its frames for latency samples and spans. A handler
// error drops the whole group (len(g) app errors; a BurstApp reports
// per-packet failures through Context.PacketError instead). With panic
// isolation on, a panic quarantines the whole group — the engine cannot
// know which packet poisoned it — and so does an open breaker.
//
// The packets are copied into the incarnation's own vector first: from
// appEnter to appExit a restart may reset the pend list g points into, so
// g is not read again until invoke has returned.
func (w *worker) flushGroup(g []pendFrame) {
	sh := w.sh
	start, decode0 := sh.chargeStart(g[0].arrival, g[0].decode)
	g[0].decode = decode0
	var base time.Duration
	for i := range g {
		base += g[i].decode + g[i].kernel
	}
	if w.isolate && !w.breakerAdmits() {
		w.quarantine(g, start, base)
		return
	}
	// pend never outgrows one burst, so the pre-sized packet vector is
	// resliced, not grown.
	pkts := w.burstPkts[:len(g)]
	for i := range g {
		pkts[i] = g[i].pkt
		w.track(g[i].pkt)
	}
	ctx := &w.ctx
	*ctx = Context{w: w, now: g[0].arrival, cost: base, emits: ctx.emits[:0]}
	err, panicked := w.invoke(ctx, pkts)
	clear(pkts)
	if panicked {
		// Whatever state the App died in, nothing it touched is recycled.
		w.forgetLive()
		w.notePanic()
		w.quarantine(g, start, base)
		return
	}
	if w.isolate {
		w.noteAppOK()
	}
	fin := sh.core.Charge(start, ctx.cost)
	n := time.Duration(len(g))
	share := (ctx.cost - base) / n
	var shareCost [telemetry.NumActions]time.Duration
	if sh.tracer != nil {
		for a := range ctx.actCost {
			shareCost[a] = ctx.actCost[a] / n
		}
	}
	if err != nil {
		sh.stats.appErrors.Add(uint64(len(g)))
	}
	for i := range g {
		p := &g[i]
		if err == nil {
			sh.recordLatency(p.class, p.decode+p.kernel+share)
		}
		sh.stampSpan(p.pkt, p.class, p.enq, start, fin, p.decode, p.kernel, share, ctx.actions, &shareCost)
	}
	if err == nil {
		w.emitAll(ctx.emits, fin)
	}
	w.releaseLive()
}

// track puts p on the live list of the App invocation in flight, once.
func (w *worker) track(p *fh.Packet) {
	if p.Mark&markLive == 0 {
		p.Mark |= markLive
		w.live = append(w.live, p)
	}
}

// releaseLive ends an App invocation's hold on its packets: every packet
// the A3 cache did not keep goes back to the pool (an emitted pool buffer
// was cut loose by emitAll and follows once it has left), and the entries
// TakeCached emptied are recycled.
func (w *worker) releaseLive() {
	for i, p := range w.live {
		w.live[i] = nil
		if p.Mark &^= markLive | markEmitted; p.Mark&(markCached|markPinned) == 0 {
			w.pool.Put(p)
		}
	}
	w.live = w.live[:0]
	w.cache.reclaim()
}

// forgetLive drops the live list to the collector.
func (w *worker) forgetLive() {
	for i, p := range w.live {
		w.live[i] = nil
		p.Mark &^= markLive
	}
	w.live = w.live[:0]
}

// retireKernel gives back what a kernel completion drew from the pool: the
// mirror replicas among emits (emitAll cut their buffers loose) and, when
// kernel retirement is disabled, the frame's own Packet. The decode
// scratch is not the pool's.
func (w *worker) retireKernel(pkt *fh.Packet, emits []*fh.Packet) {
	for _, p := range emits {
		if p != pkt {
			w.pool.Put(p)
		}
	}
	if pkt != &w.sh.kpkt {
		w.pool.Put(pkt)
	}
}

// invoke is the one place the engine calls into the App. When the watchdog
// guards this worker the supervision window opens around the call; appExit
// stays outside the recover boundary so the retirement sentinel is never
// mistaken for an App panic.
func (w *worker) invoke(ctx *Context, pkts []*fh.Packet) (err error, panicked bool) {
	if w.guarded {
		w.appEnter()
	}
	err, panicked = w.callApp(ctx, pkts)
	if w.guarded {
		w.appExit()
	}
	return err, panicked
}

// callApp dispatches the group to HandleBurst or, for a plain App (whose
// groups are single frames), to Handle. With panic isolation on it is the
// recover boundary: the deferred catchPanic is a plain function call with
// a stack-resident pointer argument, so the quarantine machinery adds no
// allocation to the hot path.
func (w *worker) callApp(ctx *Context, pkts []*fh.Packet) (err error, panicked bool) {
	if w.isolate {
		defer catchPanic(&panicked)
	}
	if b := w.eng.burst; b != nil {
		return b.HandleBurst(ctx, pkts), false
	}
	return w.eng.cfg.App.Handle(ctx, pkts[0]), false
}

// catchPanic converts a panic into a flag. It must be the directly
// deferred function for recover to engage.
func catchPanic(p *bool) {
	if recover() != nil {
		*p = true
	}
}

// breakerAdmits reports whether the circuit breaker lets an invocation
// through. An Open breaker whose cooldown elapsed thaws to Half-Open here
// on the deterministic path (where the worker's clock advances); in
// parallel mode Engine.Supervise thaws it instead.
func (w *worker) breakerAdmits() bool {
	b := &w.sh.brk
	if BreakerState(b.state.Load()) != BreakerOpen {
		return true
	}
	if w.sh.now().Sub(sim.Time(b.openedAt.Load())) >= w.eng.cfg.Supervise.BreakerCooldown &&
		b.state.CompareAndSwap(uint32(BreakerOpen), uint32(BreakerHalfOpen)) {
		w.publishBreaker(BreakerHalfOpen)
		return true
	}
	return false
}

// notePanic counts a recovered App panic against the breaker budget:
// exhausting the budget — or panicking on a Half-Open probe — opens the
// breaker.
func (w *worker) notePanic() {
	sh := w.sh
	sh.stats.appPanics.Add(1)
	b := &sh.brk
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		b.openedAt.Store(int64(sh.now()))
		b.state.Store(uint32(BreakerOpen))
		w.publishBreaker(BreakerOpen)
	case BreakerClosed:
		if b.panics++; b.panics >= w.eng.cfg.Supervise.PanicBudget {
			b.panics = 0
			b.openedAt.Store(int64(sh.now()))
			b.state.Store(uint32(BreakerOpen))
			w.publishBreaker(BreakerOpen)
		}
	}
}

// noteAppOK closes a Half-Open breaker after a successful probe.
func (w *worker) noteAppOK() {
	b := &w.sh.brk
	if BreakerState(b.state.Load()) == BreakerHalfOpen {
		b.panics = 0
		b.state.Store(uint32(BreakerClosed))
		w.publishBreaker(BreakerClosed)
	}
}

func (w *worker) publishBreaker(s BreakerState) {
	w.eng.bus.Publish(telemetry.Sample{Name: KPIBreaker, At: w.sh.now(), Value: float64(s)})
}

// quarantine fails a group of parked frames to the wire: the packets are
// forwarded raw, untouched by the App — the transparent bump-in-the-wire
// keeps the cell alive even when its workload is misbehaving. The group's
// service start was already acquired; its base work plus one forward per
// frame is charged, and every packet leaves at that instant.
func (w *worker) quarantine(g []pendFrame, start sim.Time, base time.Duration) {
	sh := w.sh
	fin := sh.core.Charge(start, base+time.Duration(len(g))*cpu.CostForward)
	sh.stats.quarantined.Add(uint64(len(g)))
	for i := range g {
		p := &g[i]
		sh.stampSpan(p.pkt, p.class, p.enq, start, fin, p.decode, p.kernel, 0, 0, nil)
		sh.passthrough[0] = p.pkt
		w.emitAll(sh.passthrough[:], fin)
	}
}

// stampSpan collects one frame's span into the burst's span buffer when
// the trace collector is on. The stage durations come from the cost model
// (decode, kernel, app); the queue stage is measured from the enqueue
// stamp to service start, so it captures ring residency plus core
// contention; total spans enqueue to egress TX. actions/actCost carry the
// per-action attribution (zero/nil on paths that never reach the App).
// The buffer is recorded in one batch at burst end (flushSpans).
func (sh *shard) stampSpan(pkt *fh.Packet, class TrafficClass, enq, start, fin sim.Time,
	decode, kernel, app time.Duration, actions uint8, actCost *[telemetry.NumActions]time.Duration) {
	if sh.tracer == nil {
		return
	}
	var s telemetry.Span
	s.EAxC = pkt.Ecpri.PcID.Uint16()
	if tm, err := pkt.Timing(); err == nil {
		s.Frame, s.Subframe, s.Slot = tm.FrameID, tm.SubframeID, tm.SlotID
	}
	s.Class = uint8(class)
	s.EnqueuedAt, s.StartAt, s.DoneAt = enq, start, fin
	if start > enq {
		s.Stages[telemetry.StageQueue] = time.Duration(start - enq)
	}
	s.Stages[telemetry.StageDecode] = decode
	s.Stages[telemetry.StageKernel] = kernel
	s.Stages[telemetry.StageApp] = app
	if fin > enq {
		s.Stages[telemetry.StageTotal] = time.Duration(fin - enq)
	}
	s.Actions = actions
	if actCost != nil {
		s.ActionCost = *actCost
	}
	sh.spanBuf = append(sh.spanBuf, s)
}

// flushSpans records the burst's collected spans in one batched Tracer
// call — one ring critical section per burst instead of one per frame.
func (sh *shard) flushSpans() {
	if len(sh.spanBuf) == 0 {
		return
	}
	sh.tracer.RecordBatch(sh.spanBuf)
	sh.spanBuf = sh.spanBuf[:0]
}

// emitAll hands processed packets to the egress. Deterministically they
// are scheduled at their virtual finish time as closure-free frame events
// with the engine as sink; under parallel workers the output function is
// invoked directly (and must be safe for concurrent use).
//
// A frame in a pool buffer is released once the output function has
// returned — right here under parallel workers, by the recycler sink
// otherwise — and the packet is cut loose from it, so the packet's own
// release leaves the buffer alone. That needs the emit to be the buffer's
// only way out: a packet the A3 cache holds, or one emitted twice, is cut
// loose without a release and its buffer is the collector's.
func (w *worker) emitAll(pkts []*fh.Packet, at sim.Time) {
	e := w.eng
	if len(pkts) == 0 {
		return
	}
	w.sh.stats.txFrames.Add(uint64(len(pkts)))
	for _, p := range pkts {
		if !p.Pooled() {
			continue
		}
		if p.Mark&(markEmitted|markCached|markPinned) != 0 {
			p.Disown()
		}
		p.Mark |= markEmitted
	}
	for _, p := range pkts {
		recycle := p.Pooled()
		if recycle {
			p.Disown()
		}
		switch {
		case e.parallel:
			(*egress)(e).DeliverFrame(p.Frame)
			if recycle {
				w.pool.PutFrame(p.Frame)
			}
		case recycle:
			e.sched.AtFrame(at, (*recycler)(w), p.Frame)
		default:
			e.sched.AtFrame(at, (*egress)(e), p.Frame)
		}
	}
}

// egress is the Engine seen as a sim.FrameSink. The output function is
// read when the frame is delivered, not when it is scheduled, so a
// SetOutput between the two takes effect. A named pointer type rather
// than a method on Engine keeps DeliverFrame off the public engine API.
type egress Engine

// DeliverFrame hands one emitted frame to the attached output function.
func (e *egress) DeliverFrame(frame []byte) {
	if e.out != nil {
		e.out(frame)
	}
}

// recycler is a worker incarnation seen as the sim.FrameSink of the pool
// buffers it emits: egress, then the buffer goes back to the worker's pool.
type recycler worker

// DeliverFrame hands the frame to the output function and releases it. The
// pool is single-goroutine: this runs on the scheduler goroutine, which is
// also the one draining inline — unless Start has handed the worker to its
// own goroutine since the frame was scheduled, or a restart has replaced
// the incarnation; then the buffer is left to the collector.
func (r *recycler) DeliverFrame(frame []byte) {
	w := (*worker)(r)
	(*egress)(w.eng).DeliverFrame(frame)
	if !w.eng.parallel && w.sh.w == w {
		w.pool.PutFrame(frame)
	}
}

func (sh *shard) recordLatency(class TrafficClass, d time.Duration) {
	sh.latMu.Lock()
	if len(sh.lat[class]) < 1<<16 { // bound memory on long runs
		sh.lat[class] = append(sh.lat[class], d)
	}
	sh.latMu.Unlock()
}

// latencySamples appends the shard's samples for a class to dst.
func (sh *shard) latencySamples(dst []time.Duration, class TrafficClass) []time.Duration {
	sh.latMu.Lock()
	dst = append(dst, sh.lat[class]...)
	sh.latMu.Unlock()
	return dst
}

func (sh *shard) resetLatency() {
	sh.latMu.Lock()
	for i := range sh.lat {
		sh.lat[i] = sh.lat[i][:0]
	}
	sh.latMu.Unlock()
}
