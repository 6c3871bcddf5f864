package core

import (
	"sync"
	"sync/atomic"

	"ranbooster/internal/fh"
)

// The work-stealing admission pool (ScalePolicy.WorkSteal, DESIGN.md
// §6.8). Every distinct eAxC owns a streamQ — an SPSC ring plus the
// stream's private state (sequence tracker, A3 cache) — and the shard
// workers drain whichever streams have backlog:
//
//   - The producer pushes a frame onto its stream's ring and, when the
//     stream was idle, publishes the stream on its home worker's deque.
//   - Workers pop streams from their own deque first, then steal the
//     oldest half of the deepest victim deque (leaving the victim's last
//     stream for its owner), and finally hedge: once a queued stream has
//     waited wsHedgePolls pool-wide idle polls, an idle worker takes
//     it even if it is the victim's last — the overdrive that keeps a
//     straggler's backlog moving while the straggler is buried in a hot
//     stream. Stolen and hedged pickups are counted in Stats.Steals.
//
// FIFO argument: a stream is in exactly one of three states — idle (not
// published), queued (in exactly one deque), running (owned by exactly
// one worker). The only transition out of idle is a compare-and-swap, so
// a stream is never published twice; a worker drains the stream's ring
// in order; and the runner's exit protocol (store idle, re-check the
// ring, re-publish on a successful idle→queued CAS) closes the window
// where the producer pushed a frame after the runner's last pop but
// before the state store. Exactly one publisher wins, so no frame is
// stranded and no two workers ever drain one stream concurrently —
// per-eAxC FIFO order is preserved by construction. Cross-worker
// visibility of the stream's seq map and cache is ordered by the deque
// mutex (publish under lock happens-before pickup under the same lock).
//
// In deterministic inline mode the state machine is bypassed entirely:
// ingress drains the stream on the spot through its home shard's worker,
// so seeded runs replay bit-identically and Stats.Steals stays zero.

// Stream state machine values (streamQ.state).
const (
	wsIdle uint32 = iota
	wsQueued
	wsRunning
)

// wsNoEAxC keys the fallback stream for frames with no readable eAxC;
// the full decode in processOne accounts the parse error.
const wsNoEAxC = 1 << 16

// wsStealMax bounds how many streams one steal moves; a thief that could
// take more comes back for the rest, which keeps the per-shard steal
// scratch fixed-size.
const wsStealMax = 32

// Pool sizing. No deployment, experiment or benchmark ever asked for other
// values, so these are constants rather than ScalePolicy knobs.
const (
	// wsStreamRing is the per-stream ingress ring capacity.
	wsStreamRing = 256
	// wsMaxStreams bounds distinct stream queues: the eAxC is 16 bits of
	// outside input and a queue costs ~10 KB, so past this many a new id
	// folds onto an existing queue (see addStream).
	wsMaxStreams = 4096
	// wsHedgePolls is the pool-wide idle-poll age after which a queued
	// stream counts as stale for hedged pickup.
	wsHedgePolls = 8
)

// wsDeque is one worker's stream backlog: owner pushes and pops at
// opposite ends of a compacting slice, thieves take from the head (the
// oldest streams — exactly the ones a buried owner is slowest to reach).
type wsDeque struct {
	mu   sync.Mutex
	q    []*streamQ
	head int
}

// push appends a stream to the deque tail.
func (d *wsDeque) push(sq *streamQ) {
	d.mu.Lock()
	d.q = append(d.q, sq)
	d.mu.Unlock()
}

// pushAll appends a stolen batch under one lock acquisition.
func (d *wsDeque) pushAll(sqs []*streamQ) {
	d.mu.Lock()
	d.q = append(d.q, sqs...)
	d.mu.Unlock()
}

// pop takes the oldest stream, nil when the deque is empty.
func (d *wsDeque) pop() *streamQ {
	d.mu.Lock()
	if d.head == len(d.q) {
		d.mu.Unlock()
		return nil
	}
	sq := d.q[d.head]
	d.q[d.head] = nil
	d.head++
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
	d.mu.Unlock()
	return sq
}

// size reports the backlog depth.
func (d *wsDeque) size() int {
	d.mu.Lock()
	n := len(d.q) - d.head
	d.mu.Unlock()
	return n
}

// steal moves up to half of d's backlog (oldest first) into buf and
// returns how many moved. Unless takeAll — the final drain on Stop — the
// victim keeps at least one stream, so an owner between bursts is never
// left idle by its thieves. The copy-out-then-release shape (the thief
// appends to its own deque after unlocking) keeps lock acquisition
// one-at-a-time: thieves stealing from each other cannot deadlock.
func (d *wsDeque) steal(buf []*streamQ, takeAll bool) int {
	d.mu.Lock()
	avail := len(d.q) - d.head
	take := avail / 2
	if takeAll {
		take = avail
	}
	if take > len(buf) {
		take = len(buf)
	}
	for i := 0; i < take; i++ {
		buf[i] = d.q[d.head]
		d.q[d.head] = nil
		d.head++
	}
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
	d.mu.Unlock()
	return take
}

// takeStale takes the deque's oldest stream iff it has been queued for
// at least wsHedgePolls pool-wide idle polls — the hedged pickup.
func (d *wsDeque) takeStale(now uint64) *streamQ {
	d.mu.Lock()
	if d.head < len(d.q) {
		sq := d.q[d.head]
		if now-sq.queuedAt.Load() >= wsHedgePolls {
			d.q[d.head] = nil
			d.head++
			if d.head == len(d.q) {
				d.q, d.head = d.q[:0], 0
			}
			d.mu.Unlock()
			return sq
		}
	}
	d.mu.Unlock()
	return nil
}

// wsPool is the engine's work-stealing admission state: the stream table
// (producer goroutine only — the single-producer Ingress contract) and
// one deque per shard worker.
type wsPool struct {
	eng *Engine
	// maxStreams is the fold bound, wsMaxStreams outside tests.
	maxStreams int
	// byKey/order are the stream table. Producer-owned: looked up and
	// grown only from Ingress/TryIngress.
	byKey map[uint32]*streamQ
	order []*streamQ
	// deques[i] is shard i's backlog.
	deques []wsDeque
	// polls counts pool-wide empty worker polls — the virtual staleness
	// clock for hedged pickup (advancing exactly when someone is idle,
	// which is exactly when hedging matters).
	polls atomic.Uint64
	// rr rotates the secondary wake target (producer goroutine only).
	rr uint64
}

func newWSPool(e *Engine) *wsPool {
	return &wsPool{
		eng:        e,
		maxStreams: wsMaxStreams,
		byKey:      make(map[uint32]*streamQ),
		deques:     make([]wsDeque, len(e.shards)),
	}
}

// stream resolves a frame to its stream queue, creating it on first
// sight (the only allocation on this path, paid once per stream).
func (p *wsPool) stream(frame []byte) *streamQ {
	key := uint32(wsNoEAxC)
	if eaxc, ok := fh.PeekEAxC(frame); ok {
		key = uint32(eaxc)
	}
	if sq := p.byKey[key]; sq != nil {
		return sq
	}
	return p.addStream(key)
}

func (p *wsPool) addStream(key uint32) *streamQ {
	if len(p.order) >= p.maxStreams {
		// At capacity: fold the new key onto an existing queue. The fold
		// is a pure function of the key and the (now frozen) pool size,
		// so it is stable — per-eAxC FIFO holds through the shared queue.
		sq := p.order[int(key)%len(p.order)]
		p.byKey[key] = sq
		return sq
	}
	// Fibonacci-style spread over the full id: unlike the RU-port nibble
	// hash, distinct streams of one cell land on distinct home workers.
	// Derived from the key alone, so seeded runs are reproducible.
	home := p.eng.shards[(key*2654435761)>>16%uint32(len(p.deques))]
	sq := newStreamQ(home, wsStreamRing)
	p.byKey[key] = sq
	p.order = append(p.order, sq)
	return sq
}

// Streams reports how many distinct stream queues exist. Producer
// goroutine only (like Ingress).
func (p *wsPool) Streams() int { return len(p.order) }

// park puts a queued stream on shard id's deque, stamped with the poll
// epoch its staleness is measured from.
func (p *wsPool) park(sq *streamQ, id int) {
	sq.queuedAt.Store(p.polls.Load())
	p.deques[id].push(sq)
}

// publish makes a stream that just took a frame visible to the workers:
// an idle stream goes on its home worker's deque (a queued or running one
// is already somebody's), and a second worker, rotating, is woken besides
// the home worker ingress wakes — if the home worker is buried in another
// stream, some awake worker will steal or hedge this one.
func (p *wsPool) publish(sq *streamQ) {
	if sq.state.CompareAndSwap(wsIdle, wsQueued) {
		p.park(sq, sq.home.id)
	}
	p.rr++
	p.eng.shards[int(p.rr)%len(p.eng.shards)].wakeUp()
}

// next hands sh's worker its next stream: own deque, then steal-half
// from the deepest victim, then hedged pickup of a stale straggler. The
// claimed stream is moved to running; stolen and hedged streams are
// counted in Stats.Steals on the thief's shard. In final mode (Stop's
// drain) the leave-one rule and the staleness bar are waived so every
// published stream is drained.
func (p *wsPool) next(sh *shard, final bool) *streamQ {
	self := sh.id
	if sq := p.deques[self].pop(); sq != nil {
		sq.state.Store(wsRunning)
		return sq
	}
	n := len(p.deques)
	if n == 1 {
		return nil
	}
	// Deepest victim first: steals drain toward the pool's center of
	// mass instead of ping-ponging singletons.
	floor := 1 // leave-one: a singleton backlog is its owner's
	if final {
		floor = 0
	}
	best, bestLen := -1, floor
	for i := 1; i < n; i++ {
		j := (self + i) % n
		if l := p.deques[j].size(); l > bestLen {
			best, bestLen = j, l
		}
	}
	if best >= 0 {
		buf := sh.stealBuf[:wsStealMax]
		if k := p.deques[best].steal(buf, final); k > 0 {
			sh.stats.steals.Add(uint64(k))
			sq := buf[0]
			sq.state.Store(wsRunning)
			if k > 1 {
				p.deques[self].pushAll(buf[1:k])
			}
			for i := 0; i < k; i++ {
				buf[i] = nil
			}
			return sq
		}
	}
	if final {
		return nil
	}
	now := p.polls.Load()
	for i := 1; i < n; i++ {
		j := (self + i) % n
		if sq := p.deques[j].takeStale(now); sq != nil {
			sh.stats.steals.Add(1)
			sq.state.Store(wsRunning)
			return sq
		}
	}
	return nil
}

// runWS is the parallel-mode worker loop of the work-stealing layout —
// the counterpart of worker.run. Same block-when-empty cadence; the drain
// step claims whole streams instead of polling one ring.
//
//ranvet:hotpath
//ranvet:goroutine shard-worker
func (w *worker) runWS(stop <-chan struct{}) {
	defer w.retire()
	p := w.eng.ws
	for {
		if sq := p.next(w.sh, false); sq != nil {
			w.runStream(sq)
			continue
		}
		p.polls.Add(1)
		select {
		case <-w.sh.wake:
		case <-stop:
			// Final drain: claim and drain published streams until the
			// pool is dry. A stream another worker is still running is
			// that worker's to finish — its own final loop drains it.
			for {
				sq := p.next(w.sh, true)
				if sq == nil {
					return
				}
				w.runStream(sq)
			}
		}
	}
}

// runStream drains up to one batch from a claimed stream through the
// ordinary burst pipeline, then releases the claim: a stream with leftover
// backlog goes back on this worker's deque; an empty one parks idle, with
// the re-check-and-republish step that closes the producer race (see the
// FIFO argument at the top of the file).
func (w *worker) runStream(sq *streamQ) {
	sh := w.sh
	w.drainStream(sq, len(sh.burstFrames))
	p := w.eng.ws
	if sq.in.queued() > 0 {
		sq.state.Store(wsQueued)
		p.park(sq, sh.id)
		return
	}
	sq.state.Store(wsIdle)
	if sq.in.queued() > 0 && sq.state.CompareAndSwap(wsIdle, wsQueued) {
		p.park(sq, sh.id)
	}
}
