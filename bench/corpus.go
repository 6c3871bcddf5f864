package main

import (
	"math/rand"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
)

// seqOffset is where the eCPRI SeqID byte sits in an untagged fronthaul
// frame: 14 bytes of Ethernet, then byte 6 of the eCPRI common header. The
// harness restamps it on every replay and masks it out of output digests.
const seqOffset = eth.HeaderLen + 6

// frameRef locates one corpus frame in corpus.bytes and names the eCPRI
// sequence stream (source MAC, eAxC) its SeqID is counted on.
type frameRef struct {
	off, end int
	stream   int
}

// corpus is the seeded input of one workload: `slots` consecutive slots of
// fronthaul frames in arrival order, stored back to back so a burst is one
// contiguous byte range. It is never handed to an engine — Engine.Ingress
// owns and rewrites the frame it is given, so the harness replays copies.
type corpus struct {
	bytes  []byte
	frames []frameRef
	// bursts[i] is the index of the first frame of burst i; the last
	// element closes the final burst. A burst is the timed unit.
	bursts []int
	// burstOut[i] is how many frames the ingress of burst i transmits.
	burstOut      []int
	slots         int
	burstsPerSlot int
	streams       int

	// The generator's own arithmetic, which the verification pass checks
	// the engine against: frames each cycle must emit, frames the app is
	// expected to drop (consumed inputs, not failures), and the PRB
	// ground truth of the port-0 U-plane frames.
	expectOut, expectDrops uint64
	seenDL, seenUL         uint64
	utilDL, utilUL         uint64
	ssbReplicas            uint64
}

func (c *corpus) framesPerSlot() int { return len(c.frames) / c.slots }

// Amplitude classes of the generated IQ: about 60 % of PRBs carry a signal
// strong enough to exceed prbmon's exponent thresholds in both directions
// (a sample of at least 4096 needs a BFP9 exponent of 5), the rest sit near
// the noise floor (below 256, exponent 0). Four summed signal PRBs stay
// inside int16, so the DAS merge does not saturate.
const (
	signalShare = 0.6
	signalMin   = 4096
	signalSpan  = 3904
	noiseMin    = 4
	noiseSpan   = 116
)

type streamKey struct {
	src  eth.MAC
	eaxc uint16
}

// gen builds a corpus from a seed. Frames are added in replay order.
type gen struct {
	rng      *rand.Rand
	c        *corpus
	comp     bfp.Params
	streams  map[streamKey]int
	builders map[[2]eth.MAC]*fh.Builder
	grid     iq.Grid
	payload  []byte
	burstOut int // frames the burst being generated will make the middlebox emit
}

func newGen(seed int64, slots, burstsPerSlot int) *gen {
	return &gen{
		rng:      rand.New(rand.NewSource(seed)),
		c:        &corpus{slots: slots, burstsPerSlot: burstsPerSlot, bursts: []int{0}},
		comp:     bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint},
		streams:  make(map[streamKey]int),
		builders: make(map[[2]eth.MAC]*fh.Builder),
	}
}

func (g *gen) builder(src, dst eth.MAC) *fh.Builder {
	k := [2]eth.MAC{src, dst}
	b := g.builders[k]
	if b == nil {
		b = fh.NewBuilder(src, dst, -1)
		g.builders[k] = b
	}
	return b
}

// add appends a built frame to the corpus with the outputs the generator
// expects the middlebox to emit for it and the app drops it accounts for.
func (g *gen) add(frame []byte, src eth.MAC, pc ecpri.PcID, out, drops int) {
	k := streamKey{src, pc.Uint16()}
	st, ok := g.streams[k]
	if !ok {
		st = len(g.streams)
		g.streams[k] = st
	}
	off := len(g.c.bytes)
	g.c.bytes = append(g.c.bytes, frame...)
	g.c.frames = append(g.c.frames, frameRef{off: off, end: len(g.c.bytes), stream: st})
	g.c.expectOut += uint64(out)
	g.burstOut += out
	g.c.expectDrops += uint64(drops)
}

func (g *gen) endBurst() {
	g.c.bursts = append(g.c.bursts, len(g.c.frames))
	g.c.burstOut = append(g.c.burstOut, g.burstOut)
	g.burstOut = 0
}

func (g *gen) finish() *corpus {
	g.c.streams = len(g.streams)
	return g.c
}

// timing returns the radio application header of a symbol of absolute slot
// abs, with frame, subframe and slot ids advancing as on the air.
func timing(abs, sym int, dir oran.Direction) oran.Timing {
	f, sf, sl := phy.SlotCoords(abs)
	return oran.Timing{Direction: dir, PayloadVersion: 1, FrameID: f, SubframeID: sf, SlotID: sl, SymbolID: uint8(sym)}
}

// fill draws n PRBs of IQ into the generator's grid and reports how many
// belong to the signal class. One random word per PRB picks the class and
// amplitude, a second scatters the twelve samples below that amplitude.
func (g *gen) fill(n int) (util int) {
	if cap(g.grid) < n {
		g.grid = iq.NewGrid(n)
	}
	g.grid = g.grid[:n]
	for i := range g.grid {
		amp := int32(noiseMin + g.rng.Intn(noiseSpan))
		if g.rng.Float64() < signalShare {
			amp = int32(signalMin + g.rng.Intn(signalSpan))
			util++
		}
		r := g.rng.Uint64()
		prb := &g.grid[i]
		for j := range prb {
			// Magnitudes in [amp/2, amp), signs from the low bits.
			vi := amp * int32(64+(r>>2)&63) / 128
			vq := amp * int32(64+(r>>8)&63) / 128
			if r&1 != 0 {
				vi = -vi
			}
			if r&2 != 0 {
				vq = -vq
			}
			prb[j] = iq.Sample{I: int16(vi), Q: int16(vq)}
			r = r>>5 | r<<59
		}
		// The class decides the exponent, so one sample carries the full
		// amplitude.
		prb[0].I = int16(amp)
	}
	return util
}

// uplane builds a one-section U-plane frame of nPRB freshly drawn PRBs. With
// track set, the PRBs enter the utilization ground truth (prbmon scans the
// port-0 frames only).
func (g *gen) uplane(src, dst eth.MAC, pc ecpri.PcID, t oran.Timing, startPRB, nPRB int, track bool) []byte {
	util := g.fill(nPRB)
	var err error
	g.payload, err = bfp.CompressGrid(g.payload[:0], g.grid, g.comp)
	if err != nil {
		panic("ranbench: compressing generated IQ: " + err.Error())
	}
	if track {
		if t.Direction == oran.Downlink {
			g.c.seenDL += uint64(nPRB)
			g.c.utilDL += uint64(util)
		} else {
			g.c.seenUL += uint64(nPRB)
			g.c.utilUL += uint64(util)
		}
	}
	msg := oran.UPlaneMsg{
		Timing:   t,
		Sections: []oran.USection{{SectionID: 1, StartPRB: startPRB, NumPRB: nPRB, Comp: g.comp, Payload: g.payload}},
	}
	return g.builder(src, dst).UPlane(pc, &msg)
}

// cplane builds a section type 1 request covering nPRB PRBs of all fourteen
// symbols of the slot.
func (g *gen) cplane(src, dst eth.MAC, pc ecpri.PcID, t oran.Timing, nPRB int) []byte {
	msg := oran.CPlaneMsg{
		Timing:      t,
		SectionType: oran.SectionType1,
		Comp:        g.comp,
		Sections:    []oran.CSection{{SectionID: 1, NumPRB: nPRB, ReMask: 0xfff, NumSymbol: phy.SymbolsPerSlot}},
	}
	return g.builder(src, dst).CPlane(pc, &msg)
}
