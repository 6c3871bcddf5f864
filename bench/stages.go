package main

import (
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// The stage replay: for a sampled burst the harness makes, from its own
// files, the public layer calls the engine and the workload's app are known
// to make for those frames — on a scratch copy, before the real ingress —
// and records a span around each. No code under internal/ is instrumented.
// Layers the workload does not use are probed afterwards over every frame
// they apply to, so every layer has a cost on every workload's frames.

// span is one timed interval of the traced pass.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: none
	Burst  int32  `json:"burst"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	// Units is what the span covered: frames, PRBs, packets, rule
	// evaluations or events, as the stage's metric names it.
	Units int32 `json:"units"`
	// Replayed marks a stage replay the workload's real ingress is known to
	// repeat: a child of engine.ingress in the self-time arithmetic, though
	// it ran before it. A stage span without it is a probe.
	Replayed bool `json:"replayed,omitempty"`
}

// Stage names, which are also the span names.
const (
	stPeek       = "fh.peek"
	stDecode     = "fh.decode"
	stRedirect   = "fh.redirect"
	stClone      = "fh.clone"
	stRebuild    = "fh.rebuild"
	stUPlane     = "oran.uplane"
	stCPlane     = "oran.cplane"
	stDecompress = "bfp.decompress"
	stCompress   = "bfp.compress"
	stExponents  = "bfp.exponents"
	stAddSat     = "iq.addsat"
	stCachePut   = "core.cache.put_take"
	stCachePeek  = "core.cache.peek"
	stMatch      = "core.kernel.match"
	stSched      = "sim.sched"
)

// sect is one run of compressed PRBs to run a codec stage over.
type sect struct {
	payload []byte
	n       int
	comp    bfp.Params
}

// stager owns the scratch the replayed calls work in and the spans they
// leave. One stager serves one traced pass.
type stager struct {
	w     *workload
	t0    time.Time
	spans []span
	burst int32
	// ingress is the id reserved for the burst's engine.ingress span, the
	// parent of the replayed stages; probing switches to the burst root.
	ingress, root int32
	probing       bool
	called        map[string]bool

	buf    []byte
	frames [][]byte
	pkts   []fh.Packet
	// The burst's packets by kind, filled by decode.
	all, dlU, ulU, cpl []*fh.Packet
	umsgs              []oran.UPlaneMsg
	upkts              []*fh.Packet // upkts[i] is the packet umsgs[i] was decoded from
	cmsgs              []oran.CPlaneMsg
	grids              []iq.Grid
	txc                *bfp.Transcoder
	cache              *core.Cache
	now                sim.Time
	sched              *sim.Scheduler
	rules              []core.Match
	sink               int
}

func newStager(w *workload, c *corpus) *stager {
	maxFrames, maxBytes := 0, 0
	for b := 0; b+1 < len(c.bursts); b++ {
		lo, hi := c.bursts[b], c.bursts[b+1]
		if hi-lo > maxFrames {
			maxFrames = hi - lo
		}
		if n := c.frames[hi-1].end - c.frames[lo].off; n > maxBytes {
			maxBytes = n
		}
	}
	s := &stager{
		w:      w,
		called: map[string]bool{},
		buf:    make([]byte, maxBytes),
		frames: make([][]byte, 0, maxFrames),
		pkts:   make([]fh.Packet, maxFrames),
		umsgs:  make([]oran.UPlaneMsg, maxFrames),
		cmsgs:  make([]oran.CPlaneMsg, maxFrames),
		txc:    bfp.NewTranscoder(),
		cache:  core.NewCache(time.Millisecond),
		sched:  sim.NewScheduler(),
	}
	s.txc.Reserve(carrierPRBs)
	// The probe rule set is prbmon's: two source+plane+port matches ahead
	// of two source-only ones.
	port0 := &core.Range{}
	du, ru := macDU, macRUs[0]
	s.rules = []core.Match{
		{Src: &du, Plane: fh.PlaneU, RUPorts: port0},
		{Src: &ru, Plane: fh.PlaneU, RUPorts: port0},
		{Src: &du},
		{Src: &ru},
	}
	return s
}

func (s *stager) since() int64 { return int64(time.Since(s.t0)) }

// open starts a span and returns its index in s.spans.
func (s *stager) open(name string, parent int32) int {
	s.spans = append(s.spans, span{ID: int32(len(s.spans) + 1), Parent: parent, Burst: s.burst, Name: name, Start: s.since()})
	return len(s.spans) - 1
}

func (s *stager) close(i, units int) {
	s.spans[i].End = s.since()
	s.spans[i].Units = int32(units)
}

// stage times fn as one layer stage; fn returns how many work items it
// covered. A stage with nothing to do leaves no span.
func (s *stager) stage(name string, fn func() (units int)) {
	parent := s.ingress
	if s.probing {
		parent = s.root
	}
	i := s.open(name, parent)
	s.spans[i].Replayed = !s.probing
	units := fn()
	if units == 0 {
		s.spans = s.spans[:i]
		return
	}
	s.close(i, units)
	s.called[name] = true
}

// begin copies the burst's frames, as loaded into the receive pool, to the
// stager's scratch: the replayed calls rewrite frames just like the real
// ones, and the real ingress must see them untouched.
func (s *stager) begin(rx [][]byte, now sim.Time) {
	s.now = now
	s.frames = s.frames[:0]
	off := 0
	for _, f := range rx {
		n := copy(s.buf[off:], f)
		s.frames = append(s.frames, s.buf[off:off+n:off+n])
		off += n
	}
	s.probing = false
	for k := range s.called {
		delete(s.called, k)
	}
	s.umsgs, s.upkts, s.cmsgs, s.grids = s.umsgs[:0], s.upkts[:0], s.cmsgs[:0], s.grids[:0]
	s.txc.Reset()
}

func (s *stager) peek() {
	s.stage(stPeek, func() int {
		for _, f := range s.frames {
			e, _ := fh.PeekEAxC(f)
			pl, _ := fh.PeekShedClass(f)
			s.sink += int(e) + int(pl)
		}
		return len(s.frames)
	})
}

// decode dissects every frame and sorts the packets by kind.
func (s *stager) decode() {
	s.stage(stDecode, func() int {
		for i, f := range s.frames {
			if err := s.pkts[i].Decode(f); err != nil {
				panic("ranbench: corpus frame does not decode: " + err.Error())
			}
		}
		return len(s.frames)
	})
	s.all, s.dlU, s.ulU, s.cpl = s.all[:0], s.dlU[:0], s.ulU[:0], s.cpl[:0]
	for i := range s.frames {
		p := &s.pkts[i]
		s.all = append(s.all, p)
		t, _ := p.Timing()
		switch {
		case p.Plane() == fh.PlaneC:
			s.cpl = append(s.cpl, p)
		case t.Direction == oran.Downlink:
			s.dlU = append(s.dlU, p)
		default:
			s.ulU = append(s.ulU, p)
		}
	}
}

// uplane decodes the packets' U-plane messages into reused slots and
// returns them. The stager remembers which packet each message came from.
func (s *stager) uplane(pkts []*fh.Packet) []oran.UPlaneMsg {
	base := len(s.umsgs)
	s.umsgs = s.umsgs[:base+len(pkts)]
	s.upkts = append(s.upkts, pkts...)
	s.stage(stUPlane, func() int {
		for i, p := range pkts {
			if err := p.UPlane(&s.umsgs[base+i], carrierPRBs); err != nil {
				panic("ranbench: corpus U-plane does not decode: " + err.Error())
			}
		}
		return len(pkts)
	})
	return s.umsgs[base:]
}

func (s *stager) cplane(pkts []*fh.Packet) []oran.CPlaneMsg {
	base := len(s.cmsgs)
	s.cmsgs = s.cmsgs[:base+len(pkts)]
	s.stage(stCPlane, func() int {
		for i, p := range pkts {
			if err := p.CPlane(&s.cmsgs[base+i], carrierPRBs); err != nil {
				panic("ranbench: corpus C-plane does not decode: " + err.Error())
			}
		}
		return len(pkts)
	})
	return s.cmsgs[base:]
}

// sects lists the sections of decoded U-plane messages.
func sects(msgs []oran.UPlaneMsg) []sect {
	var out []sect
	for i := range msgs {
		for j := range msgs[i].Sections {
			sec := &msgs[i].Sections[j]
			out = append(out, sect{payload: sec.Payload, n: sec.NumPRB, comp: sec.Comp})
		}
	}
	return out
}

func prbs(ss []sect) int {
	n := 0
	for _, x := range ss {
		n += x.n
	}
	return n
}

func (s *stager) exponents(ss []sect) {
	s.stage(stExponents, func() int {
		for _, x := range ss {
			e, _ := s.txc.Exponents(x.payload, x.comp)
			s.sink += len(e)
		}
		return prbs(ss)
	})
}

// decompress decodes every section into a transcoder grid and returns the
// grids.
func (s *stager) decompress(ss []sect) []iq.Grid {
	base := len(s.grids)
	for _, x := range ss {
		s.grids = append(s.grids, s.txc.Grid(len(s.grids), x.n))
	}
	s.stage(stDecompress, func() int {
		for i, x := range ss {
			if _, err := bfp.DecompressGrid(x.payload, s.grids[base+i], x.comp); err != nil {
				panic("ranbench: corpus IQ does not decompress: " + err.Error())
			}
		}
		return prbs(ss)
	})
	return s.grids[base:]
}

// addSat accumulates src[i] into dst[i].
func (s *stager) addSat(dst, src []iq.Grid) {
	s.stage(stAddSat, func() int {
		n := 0
		for i, g := range src {
			dst[i].AddSat(g)
			n += len(g)
		}
		return n
	})
}

func (s *stager) compress(grids []iq.Grid) {
	comp := bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint}
	s.stage(stCompress, func() int {
		n := 0
		for _, g := range grids {
			out, _ := s.txc.CompressGrid(g, comp)
			s.sink += len(out)
			n += len(g)
		}
		return n
	})
}

func keyOf(p *fh.Packet) fh.Key {
	k, err := fh.KeyOf(p)
	if err != nil {
		panic("ranbench: corpus frame has no cache key: " + err.Error())
	}
	return k
}

// cachePut stores the packets in the stager's A3 cache and, with take set,
// takes every key out again; without it the entries stay until swept, as
// rushare's C-plane entries do.
func (s *stager) cachePut(pkts []*fh.Packet, take bool) {
	s.stage(stCachePut, func() int {
		for _, p := range pkts {
			s.cache.Put(keyOf(p), p, s.now)
		}
		if take {
			for _, p := range pkts {
				s.sink += len(s.cache.Take(keyOf(p)))
			}
		}
		return len(pkts)
	})
	s.cache.Sweep(s.now)
}

func (s *stager) cachePeek(pkts []*fh.Packet, times int) {
	s.stage(stCachePeek, func() int {
		for i := 0; i < times; i++ {
			for _, p := range pkts {
				s.sink += len(s.cache.Peek(keyOf(p)))
			}
		}
		return len(pkts) * times
	})
}

// clone replicates every packet copies times and returns the replicas.
func (s *stager) clone(pkts []*fh.Packet, copies int) []*fh.Packet {
	var out []*fh.Packet
	s.stage(stClone, func() int {
		for _, p := range pkts {
			for i := 0; i < copies; i++ {
				out = append(out, p.Clone())
			}
		}
		return len(out)
	})
	return out
}

func (s *stager) redirect(pkts ...[]*fh.Packet) {
	s.stage(stRedirect, func() int {
		n := 0
		for _, l := range pkts {
			for _, p := range l {
				if err := p.Redirect(macDU, macMB, -1); err != nil {
					panic("ranbench: redirect: " + err.Error())
				}
			}
			n += len(l)
		}
		return n
	})
}

// rebuild re-serializes packet i around encode[i].
func (s *stager) rebuild(pkts []*fh.Packet, encode []func([]byte) []byte) []*fh.Packet {
	out := make([]*fh.Packet, 0, len(pkts))
	s.stage(stRebuild, func() int {
		for i, p := range pkts {
			out = append(out, fh.Rebuild(p, encode[i]))
		}
		return len(pkts)
	})
	return out
}

func uEncoders(msgs []oran.UPlaneMsg) []func([]byte) []byte {
	out := make([]func([]byte) []byte, len(msgs))
	for i := range msgs {
		out[i] = msgs[i].AppendTo
	}
	return out
}

// match walks the rule set for every packet until the first rule matches,
// as the kernel half does.
func (s *stager) match(pkts []*fh.Packet) {
	s.stage(stMatch, func() int {
		evals := 0
		for _, p := range pkts {
			t, _ := p.Timing()
			for r := range s.rules {
				evals++
				if s.rules[r].Matches(p, t) {
					break
				}
			}
		}
		return evals
	})
}

// schedule queues n emit closures on the stager's scheduler and runs them,
// the deferred-emit path of the inline engine.
func (s *stager) schedule(n int) {
	s.stage(stSched, func() int {
		at := s.sched.Now()
		for i := 0; i < n; i++ {
			f := s.frames[i%len(s.frames)]
			s.sched.At(at, func() { s.sink += len(f) })
		}
		s.sched.Run()
		return n
	})
}

// replay makes the calls the workload's real ingress is known to make for
// the burst. emits is how many frames the burst's ingress transmits.
func (s *stager) replay(emits int) {
	s.decode()
	s.w.replay(s)
	s.schedule(emits)
}

// replayDAS — downlink: three replicas per frame, all four re-addressed.
// Uplink: cached until the fourth RU reported, then all decoded, summed,
// re-encoded once and rebuilt into one frame.
func replayDAS(s *stager) {
	down := append(append([]*fh.Packet(nil), s.cpl...), s.dlU...)
	s.redirect(down, s.clone(down, len(macRUs)-1))
	s.cachePeek(s.ulU, 1)
	s.cachePut(s.ulU, true)
	msgs := s.uplane(s.ulU)
	grids := s.decompress(sects(msgs))
	s.addSat([]iq.Grid{grids[0], grids[0], grids[0]}, grids[1:])
	s.compress(grids[:1])
	s.redirect(s.rebuild(s.ulU[:1], uEncoders(msgs[:1])))
}

// replayRUShare — C-plane: every request is cached and stays; the first of
// each direction is cloned, widened and rebuilt. Downlink U-plane: cached,
// the C- and U-plane entries peeked for each, both relocated through the
// codec into one rebuilt frame. Uplink: one tenant window carved per DU
// through the codec, each rebuilt on a replica.
func replayRUShare(s *stager) {
	s.cachePeek(s.cpl, 1)
	s.cachePut(s.cpl, false)
	if len(s.cpl) > 0 {
		first := s.clone([]*fh.Packet{s.cpl[0], s.cpl[2]}, 1)
		cm := s.cplane(first)
		s.redirect(s.rebuild(first, []func([]byte) []byte{cm[0].AppendTo, cm[1].AppendTo}))
	}

	s.cachePut(s.dlU, true)
	s.cachePeek(s.dlU, 2)
	dm := s.uplane(s.dlU)
	s.compress(s.decompress(sects(dm)))
	muxed := oran.UPlaneMsg{Timing: dm[0].Timing, Sections: append(append([]oran.USection(nil), dm[0].Sections...), dm[1].Sections...)}
	s.redirect(s.rebuild(s.dlU[:1], []func([]byte) []byte{muxed.AppendTo}))

	s.cachePeek(s.ulU, 1)
	um := s.uplane(s.ulU)
	_, ca, cb := rushareCarriers()
	full := um[0].Sections[0]
	size := full.Comp.PRBSize()
	windows := [][]byte{full.Payload[:ca.NumPRB*size], full.Payload[(full.NumPRB-cb.NumPRB)*size:]}
	var carved []sect
	var encode []func([]byte) []byte
	for _, w := range windows {
		n := len(w) / size
		carved = append(carved, sect{payload: w, n: n, comp: full.Comp})
		m := oran.UPlaneMsg{Timing: um[0].Timing, Sections: []oran.USection{{SectionID: full.SectionID, NumPRB: n, Comp: full.Comp, Payload: w}}}
		encode = append(encode, m.AppendTo)
	}
	s.compress(s.decompress(carved))
	s.redirect(s.rebuild(s.clone(s.ulU, len(windows)), encode))
}

// replayPRBMon — kernel only: the rule walk, the exponent scan of the port-0
// frames, an in-place rewrite of every frame.
func replayPRBMon(s *stager) {
	s.match(s.all)
	var port0 []*fh.Packet
	for _, p := range s.all {
		if p.Plane() == fh.PlaneU && p.EAxC().RUPort == 0 {
			port0 = append(port0, p)
		}
	}
	s.exponents(sects(s.uplane(port0)))
	s.redirect(s.all)
}

// replayDMIMO — every frame re-addressed; the SSB symbols of layer 0 are
// cloned for the secondary RU first.
func replayDMIMO(s *stager) {
	ssb := phy.DefaultSSB()
	var sync []*fh.Packet
	for _, p := range s.dlU {
		t, _ := p.Timing()
		slot := int(t.SubframeID)*phy.SlotsPerSubframe + int(t.SlotID)
		if p.EAxC().RUPort == 0 && ssb.Occupies(int(t.FrameID), slot, int(t.SymbolID)) {
			sync = append(sync, p)
		}
	}
	s.redirect(s.all, s.clone(sync, len(dmimoRUs)-1))
}

// probe runs every stage the replay did not, over all the frames it applies
// to, so the layer has a cost on this workload's frames too.
func (s *stager) probe() {
	s.probing = true
	not := func(name string) bool { return !s.called[name] }
	if not(stPeek) {
		s.peek()
	}
	if not(stCPlane) {
		s.cplane(s.cpl)
	}
	if not(stUPlane) {
		s.uplane(append(append([]*fh.Packet(nil), s.dlU...), s.ulU...))
	}
	// From here on the probes work on whatever the replay or the probe
	// above decoded and decompressed.
	ss := sects(s.umsgs)
	if not(stExponents) {
		s.exponents(ss)
	}
	if not(stDecompress) {
		s.decompress(ss)
	}
	if not(stAddSat) {
		s.addSat(s.grids, s.grids)
	}
	if not(stCompress) {
		s.compress(s.grids)
	}
	if not(stRebuild) {
		s.rebuild(s.upkts, uEncoders(s.umsgs))
	}
	if not(stCachePut) {
		s.cachePut(s.all, true)
	}
	if not(stCachePeek) {
		s.cachePeek(s.all, 1)
	}
	if not(stClone) {
		s.clone(s.all, 1)
	}
	if not(stMatch) {
		s.match(s.all)
	}
}
