package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// poolSlots is the least number of slots a receive buffer stays untouched
// after it was handed to the engine. Engine.Ingress owns the frame: apps
// rewrite it in place, the A3 cache and the deferred emit closures keep
// pointing into it, and rushare's C-plane entries live for about 25 slots
// before a sweep reclaims them.
const poolSlots = 64

// rig replays a corpus through one engine, single-threaded, in the engine's
// deterministic inline mode.
type rig struct {
	c     *corpus
	sched *sim.Scheduler
	eng   *core.Engine
	apps  func() appCounts

	// pool holds `copies` images of the corpus; cycle n is replayed from
	// image n%copies, so a buffer is rewritten only after at least
	// poolSlots slots. rx[k][i] is frame i inside image k.
	pool   []byte
	rx     [][][]byte
	copies int
	// seq is the next eCPRI SeqID of every (source, eAxC) stream; a replay
	// that reused the corpus SeqIDs would read as duplicates and flip the
	// engine's health to degraded.
	seq []uint8
	// cycle counts corpus cycles replayed; it keeps virtual time advancing
	// across wraps, which is what ages rushare's cache entries out.
	cycle int

	outFrames uint64
	// digest, when set, receives every emitted frame (SeqID masked).
	digest hash.Hash
}

// engineFunc builds the engine a rig replays into.
type engineFunc func(s *sim.Scheduler) (*core.Engine, func() appCounts, error)

func newRig(c *corpus, mk engineFunc) (*rig, error) {
	r := &rig{c: c, seq: make([]uint8, c.streams)}
	r.copies = (poolSlots + c.slots - 1) / c.slots
	r.pool = offHeap(r.copies * len(c.bytes))
	r.rx = make([][][]byte, r.copies)
	for k := range r.rx {
		base := k * len(c.bytes)
		r.rx[k] = make([][]byte, len(c.frames))
		for i, f := range c.frames {
			r.rx[k][i] = r.pool[base+f.off : base+f.end : base+f.end]
		}
	}
	return r, r.attach(mk)
}

// attach builds an engine on a new scheduler and wires its output to the
// rig.
func (r *rig) attach(mk engineFunc) error {
	r.sched = sim.NewScheduler()
	var err error
	if r.eng, r.apps, err = mk(r.sched); err != nil {
		return err
	}
	r.eng.SetOutput(r.output)
	return nil
}

// fresh returns a rig over the same corpus and receive pool with a new
// scheduler, engine and sequence state. One engine at a time owns the
// receive buffers: the old rig must not be replayed again.
func (r *rig) fresh(mk engineFunc) (*rig, error) {
	n := &rig{c: r.c, pool: r.pool, rx: r.rx, copies: r.copies, seq: make([]uint8, len(r.seq))}
	return n, n.attach(mk)
}

// output is the engine's transmit function. Timed runs only count frames;
// the verification passes also hash what was emitted.
func (r *rig) output(frame []byte) {
	r.outFrames++
	if r.digest != nil {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(frame)))
		r.digest.Write(n[:])
		r.digest.Write(frame[:seqOffset])
		r.digest.Write(frame[seqOffset+1:])
	}
}

// burstStart is the virtual time burst b of the current cycle arrives at.
func (r *rig) burstStart(b int) sim.Time {
	c := r.c
	abs := r.cycle*c.slots + b/c.burstsPerSlot
	if c.burstsPerSlot == 1 {
		return phy.SlotStart(abs)
	}
	return phy.SymbolStart(abs, b%c.burstsPerSlot)
}

// load copies burst b from the pristine corpus into the current pool image
// and stamps the SeqIDs. It returns the receive buffers to ingress.
func (r *rig) load(b int) [][]byte {
	c := r.c
	lo, hi := c.bursts[b], c.bursts[b+1]
	k := r.cycle % r.copies
	base := k * len(c.bytes)
	from, to := c.frames[lo].off, c.frames[hi-1].end
	copy(r.pool[base+from:base+to], c.bytes[from:to])
	rx := r.rx[k][lo:hi]
	for i, f := range rx {
		st := c.frames[lo+i].stream
		f[seqOffset] = r.seq[st]
		r.seq[st]++
	}
	return rx
}

// ingress hands the frames to the engine and runs every emit they cause.
// This is the timed region of a burst.
func (r *rig) ingress(rx [][]byte) {
	for _, f := range rx {
		r.eng.Ingress(f)
	}
	r.sched.Run()
}

// burst replays burst b of the current cycle and returns the wall time of
// its timed region.
func (r *rig) burst(b int) time.Duration {
	r.sched.RunUntil(r.burstStart(b))
	rx := r.load(b)
	t0 := time.Now()
	r.ingress(rx)
	return time.Since(t0)
}

// endSlot closes the engine's latency window so its per-class sample
// slices stay one slot long instead of growing through the run.
func (r *rig) endSlot() { r.eng.ResetMeasurement() }

// cycleUntimed replays one whole corpus cycle without recording burst times
// and returns how long the cycle took, copies included.
func (r *rig) cycleUntimed() time.Duration {
	c := r.c
	start := time.Now()
	for b := 0; b+1 < len(c.bursts); b++ {
		r.burst(b)
		if (b+1)%c.burstsPerSlot == 0 {
			r.endSlot()
		}
	}
	r.cycle++
	return time.Since(start)
}

// cycleDigest replays one cycle and returns the SHA-256 of everything it
// emitted, in emit order, with the SeqID byte masked.
func (r *rig) cycleDigest() string {
	r.digest = sha256.New()
	r.cycleUntimed()
	sum := hex.EncodeToString(r.digest.Sum(nil))
	r.digest = nil
	return sum
}

// samples holds the burst wall times of a timed pass, one series per burst
// position in the slot. Positions are never pooled: symbol 0 carries the
// C-plane frames and is a different mix from symbols 1-13.
type samples struct {
	ns [][]int32
}

func newSamples(positions, perPosition int) *samples {
	s := &samples{ns: make([][]int32, positions)}
	for i := range s.ns {
		s.ns[i] = make([]int32, 0, perPosition)
	}
	return s
}

func (s *samples) full() bool { return len(s.ns[0]) == cap(s.ns[0]) }

// timedPass is the outcome of measuring for a fixed wall time.
type timedPass struct {
	cycles int
	frames uint64
	wall   time.Duration // whole pass, untimed parts included
}

// measure replays whole corpus cycles until d has elapsed (checked between
// cycles, so every pass is a whole number of cycles and the per-frame
// allocation figures are exact). It allocates nothing: burst times go to
// pre-sized series, and a full series ends the pass early. With a stager,
// one burst in sampleEvery is traced.
func (r *rig) measure(d time.Duration, s *samples, st *stager) timedPass {
	c := r.c
	var p timedPass
	start := time.Now()
	for n := 0; time.Since(start) < d && !s.full(); {
		for b := 0; b+1 < len(c.bursts); b++ {
			var dt time.Duration
			if st != nil && n%sampleEvery == 0 {
				dt = r.tracedBurst(b, st)
			} else {
				dt = r.burst(b)
			}
			n++
			pos := b % c.burstsPerSlot
			s.ns[pos] = append(s.ns[pos], int32(dt))
			if pos == c.burstsPerSlot-1 {
				r.endSlot()
			}
		}
		r.cycle++
		p.cycles++
	}
	p.wall = time.Since(start)
	p.frames = uint64(p.cycles) * uint64(len(c.frames))
	return p
}

// quantile returns the q-quantile of an ascending series.
func quantile[T int32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// quietQuantile is the fast-tail quantile the headline is built on.
// Neighbours on the host only ever slow a burst down, so the fast tail of
// many short bursts estimates the program's own speed. On this box the
// median and even the 5th percentile of the same code move by 5-12 % from
// run to run when the host is busy; the 0.2th percentile moves by about 1 %
// (NOISE.md has the measurements).
const quietQuantile = 0.002

// quietShareBand is how close to the quiet time a burst must be to count as
// undisturbed.
const quietShareBand = 1.10

// summary is what the estimators make of a samples set.
type summary struct {
	quietSlotNs float64 // sum over positions of the quiet-quantile burst time
	quietShare  float64 // share of bursts within 10 % of their position's quiet time
	minSamples  int     // samples of the thinnest position
	p50, p99    float64 // burst time, all positions pooled, ns
	max         float64
	n           int
}

// summarize sorts the series in place.
func (s *samples) summarize() summary {
	var sum summary
	sum.minSamples = len(s.ns[0])
	var all []int32
	quiet := 0
	for _, series := range s.ns {
		sort.Slice(series, func(i, j int) bool { return series[i] < series[j] })
		q := quantile(series, quietQuantile)
		sum.quietSlotNs += q
		quiet += sort.Search(len(series), func(i int) bool { return float64(series[i]) > q*quietShareBand })
		if len(series) < sum.minSamples {
			sum.minSamples = len(series)
		}
		all = append(all, series...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sum.n = len(all)
	if sum.n > 0 {
		sum.quietShare = float64(quiet) / float64(sum.n)
		sum.p50 = quantile(all, 0.50)
		sum.p99 = quantile(all, 0.99)
		sum.max = float64(all[sum.n-1])
	}
	return sum
}
