// Package rushare implements the RU-sharing middlebox of §4.3 and
// Appendix A.1: one RU's spectrum multiplexed across several DUs
// (neutral-host deployments).
//
// Downlink, per Algorithm 2: the first C-plane message for a (slot,
// port) is widened to the RU's full spectrum and forwarded; all C-plane
// messages are cached. U-plane packets are cached until every DU that
// issued a C-plane request has delivered its IQ, then their PRBs are
// copied into one combined packet at the correct position in the RU's
// grid — a plain compressed copy when the DU's PRB grid is aligned with
// the RU's (the DU center frequency chosen per Appendix A.1.1), a
// decompress/recompress otherwise (Fig. 6).
//
// Uplink: the RU's full-spectrum U-plane is replicated per requesting DU
// and each replica carries only that DU's PRB window, re-based to the
// DU's own grid.
//
// PRACH, per Algorithm 3: the DUs' section type 3 requests are merged
// into one message whose sections carry the RU-spectrum-translated
// frequency offsets (Appendix A.1.2) and the owning DU's id; uplink
// PRACH sections are demultiplexed back by section id.
package rushare

import (
	"fmt"
	"sync/atomic"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
)

// DUInfo describes one sharing tenant.
type DUInfo struct {
	MAC     eth.MAC
	Carrier phy.Carrier
	// PortID is the DU's eCPRI DU-port id, reused as the PRACH section id
	// namespace (Algorithm 3).
	PortID uint8
}

// Config describes one RU-sharing middlebox.
type Config struct {
	Name      string
	MAC       eth.MAC
	RU        eth.MAC
	RUCarrier phy.Carrier
	Comp      bfp.Params
	DUs       []DUInfo
}

// MaxDUs bounds the number of sharing tenants: DU membership sets are
// tracked as uint64 bitmasks on the datapath.
const MaxDUs = 64

// App is the RU-sharing middlebox.
type App struct {
	cfg    Config
	byMAC  map[eth.MAC]int
	offset []int  // PRB offset of each DU's grid within the RU's
	align  []bool // aligned fast path available?

	// Observability counters. Atomic types so that readers racing
	// parallel engine workers cannot accidentally use a plain load.
	Muxed, Demuxed, PRACHMuxed atomic.Uint64
	AlignedCopies, Recompress  atomic.Uint64
}

// New builds the middlebox, resolving each DU's grid placement.
func New(cfg Config) (*App, error) {
	if len(cfg.DUs) > MaxDUs {
		return nil, fmt.Errorf("rushare: %d DUs exceed the %d-tenant bound", len(cfg.DUs), MaxDUs)
	}
	a := &App{cfg: cfg, byMAC: make(map[eth.MAC]int)}
	for i, d := range cfg.DUs {
		off, aligned := phy.PRBOffset(cfg.RUCarrier, d.Carrier)
		if off < 0 || off+d.Carrier.NumPRB > cfg.RUCarrier.NumPRB {
			return nil, fmt.Errorf("rushare: DU %d spectrum outside the RU's (offset %d)", i, off)
		}
		a.byMAC[d.MAC] = i
		a.offset = append(a.offset, off)
		a.align = append(a.align, aligned)
	}
	return a, nil
}

// Name implements core.App.
func (a *App) Name() string { return a.cfg.Name }

// Aligned reports whether tenant i enjoys the aligned fast path.
func (a *App) Aligned(i int) bool { return a.align[i] }

// Handle implements core.App.
//
//ranvet:hotpath
//ranvet:detpath
func (a *App) Handle(ctx *core.Context, pkt *fh.Packet) error {
	if i, ok := a.byMAC[pkt.Eth.Src]; ok {
		return a.fromDU(ctx, pkt, i)
	}
	if pkt.Eth.Src == a.cfg.RU {
		return a.fromRU(ctx, pkt)
	}
	ctx.Drop(pkt)
	return nil
}

// HandleBurst implements core.BurstApp: each packet of the burst runs the
// per-frame mux/demux logic, with per-packet failures isolated through
// Context.PacketError — a malformed tenant message must not discard the
// other tenants' frames of the same burst.
//
//ranvet:hotpath
//ranvet:detpath
func (a *App) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	for _, pkt := range pkts {
		if err := a.Handle(ctx, pkt); err != nil {
			ctx.PacketError(pkt, err)
		}
	}
	return nil
}

// Cache keys: C-plane state is slot-scoped per RU port; U-plane state is
// symbol-scoped per RU port. The eAxC field carries only the RU port so
// packets of different DUs share a key.
func cKey(t oran.Timing, port uint8, prach bool) fh.Key {
	k := fh.Key{Sym: oran.SymbolRef{Slot: oran.SlotOf(t)}, EAxC: uint16(port), Dir: t.Direction}
	if prach {
		k.EAxC |= 0x8000
	}
	return k
}

func uKey(t oran.Timing, port uint8) fh.Key {
	return fh.Key{Sym: oran.SymbolOf(t), EAxC: uint16(port) | 0x4000, Dir: t.Direction}
}

// fromDU implements the downlink halves of Algorithms 2 and 3.
func (a *App) fromDU(ctx *core.Context, pkt *fh.Packet, idx int) error {
	t, err := pkt.Timing()
	if err != nil {
		return err
	}
	if pkt.Plane() == fh.PlaneC {
		if t.FilterIndex == 1 {
			return a.prachCPlane(ctx, pkt, t)
		}
		return a.dataCPlane(ctx, pkt, t, idx)
	}
	if t.Direction != oran.Downlink {
		ctx.Drop(pkt)
		return nil
	}
	return a.dlUPlane(ctx, pkt, t, idx)
}

// dataCPlane caches every request and forwards only the first per (slot,
// port), widened to the RU's whole spectrum (Algorithm 2 lines 3-7).
func (a *App) dataCPlane(ctx *core.Context, pkt *fh.Packet, t oran.Timing, idx int) error {
	key := cKey(t, pkt.EAxC().RUPort, false)
	first := ctx.CachedCount(key) == 0
	ctx.Cache(key, pkt)
	if !first {
		return nil
	}
	// The cached request stays as the DU sent it: ModifyCPlane re-encodes
	// into a packet of its own.
	//ranvet:allow alloc widening closure runs once per (slot, port), and ModifyCPlane does not retain it: its environment stays on the stack
	widened, err := ctx.ModifyCPlane(pkt, a.cfg.DUs[idx].Carrier.NumPRB, func(msg *oran.CPlaneMsg) error {
		for i := range msg.Sections {
			msg.Sections[i].StartPRB = 0
			msg.Sections[i].NumPRB = a.cfg.RUCarrier.NumPRB
		}
		msg.Comp = a.cfg.Comp
		return nil
	})
	if err != nil {
		return err
	}
	return ctx.Redirect(widened, a.cfg.RU, a.cfg.MAC, -1)
}

// dlUPlane caches downlink IQ and, once every requesting DU delivered the
// (symbol, port), multiplexes all PRBs into one packet for the RU
// (Algorithm 2 lines 9-15).
func (a *App) dlUPlane(ctx *core.Context, pkt *fh.Packet, t oran.Timing, idx int) error {
	ukey := uKey(t, pkt.EAxC().RUPort)
	ctx.Cache(ukey, pkt)
	ckey := cKey(t, pkt.EAxC().RUPort, false)
	needed := a.duSet(ctx.Cached(ckey))
	have := a.duSet(ctx.Cached(ukey))
	if needed == 0 || !subset(needed, have) {
		return nil
	}
	pkts := ctx.TakeCached(ukey)
	merged, err := a.muxDL(ctx, pkts, t)
	if err != nil {
		return err
	}
	a.Muxed.Add(1)
	return ctx.Redirect(merged, a.cfg.RU, a.cfg.MAC, -1)
}

// duSet maps cached packets to the set of source DUs, as a bitmask over
// tenant indices (New bounds tenants to MaxDUs). A plain integer keeps
// mux decisions allocation-free on the datapath.
func (a *App) duSet(pkts []*fh.Packet) uint64 {
	var out uint64
	for _, p := range pkts {
		if i, ok := a.byMAC[p.Eth.Src]; ok {
			out |= 1 << uint(i)
		}
	}
	return out
}

// subset reports whether every DU in needed also appears in have.
func subset(needed, have uint64) bool { return needed&^have == 0 }

// muxDL combines the cached DL U-plane packets into one full-position
// message on the RU grid. Relocated payloads and the combined message come
// from the shard's pooled scratch and the output frame from the worker's
// frame pool, so a steady-state mux allocates nothing.
func (a *App) muxDL(ctx *core.Context, pkts []*fh.Packet, t oran.Timing) (*fh.Packet, error) {
	ctx.Transcoder().Reset()
	out := ctx.UPlaneScratch(1)
	*out = oran.UPlaneMsg{Timing: t, Sections: out.Sections[:0]}
	msg := ctx.UPlaneScratch(0)
	for _, p := range pkts {
		idx := a.byMAC[p.Eth.Src]
		if err := p.UPlane(msg, a.cfg.DUs[idx].Carrier.NumPRB); err != nil {
			return nil, err
		}
		for i := range msg.Sections {
			s := &msg.Sections[i]
			sec, err := a.relocate(ctx, s, idx, true)
			if err != nil {
				return nil, err
			}
			//ranvet:allow alloc appends into the shard's reusable staging message; the backing array amortizes across frames
			out.Sections = append(out.Sections, sec)
		}
	}
	merged := ctx.Rebuild(pkts[0], out.AppendTo)
	// Clear the BandSector: the combined stream carries several cells'
	// PRBs, so attribution falls back to spectrum position.
	pc := merged.EAxC()
	pc.BandSector = 0
	merged.SetEAxC(pc)
	return merged, nil
}

// relocate moves a section between a DU grid and the RU grid. toRU=true
// shifts DU→RU; false shifts RU→DU (the startPRB delta flips). The
// payload is copied verbatim on the aligned fast path and transcoded
// through the IQ codec otherwise.
func (a *App) relocate(ctx *core.Context, s *oran.USection, idx int, toRU bool) (oran.USection, error) {
	delta := a.offset[idx]
	if !toRU {
		delta = -delta
	}
	sec := oran.USection{
		SectionID: s.SectionID,
		StartPRB:  s.StartPRB + delta,
		NumPRB:    s.NumPRB,
		Comp:      s.Comp,
	}
	if a.align[idx] {
		ctx.ChargeCopyAligned(s.NumPRB)
		a.AlignedCopies.Add(1)
		sec.Payload = ctx.Transcoder().AppendBytes(s.Payload)
		return sec, nil
	}
	var err error
	sec.Payload, err = a.transcode(ctx, s.Payload, s.Comp, s.NumPRB)
	return sec, err
}

// transcode is the misaligned path (Fig. 6 right): the first n PRBs of
// payload are decompressed, re-gridded and recompressed under the same
// parameters — one PRB at a time through the Transcoder's single-source
// MergeGrid, the result in the arena.
func (a *App) transcode(ctx *core.Context, payload []byte, comp bfp.Params, n int) ([]byte, error) {
	tx := ctx.Transcoder()
	src := tx.Sections(1)
	src[0] = bfp.Section{Payload: payload, Comp: comp}
	out, err := tx.MergeGrid(src, n, comp)
	if err != nil {
		return nil, err
	}
	ctx.ChargeRecompress(n)
	a.Recompress.Add(1)
	return out, nil
}

// fromRU demultiplexes uplink traffic back to the tenants.
func (a *App) fromRU(ctx *core.Context, pkt *fh.Packet) error {
	t, err := pkt.Timing()
	if err != nil {
		return err
	}
	if pkt.Plane() != fh.PlaneU || t.Direction != oran.Uplink {
		ctx.Drop(pkt)
		return nil
	}
	if t.FilterIndex == 1 {
		return a.prachULDemux(ctx, pkt, t)
	}
	return a.ulDemux(ctx, pkt, t)
}

// ulDemux replicates the RU's full-spectrum uplink per requesting DU,
// carving out each DU's PRB window (Algorithm 2 lines 16-24).
func (a *App) ulDemux(ctx *core.Context, pkt *fh.Packet, t oran.Timing) error {
	ckey := cKey(t, pkt.EAxC().RUPort, false)
	requesters := a.duSet(ctx.Cached(ckey))
	if requesters == 0 {
		ctx.Drop(pkt)
		return nil
	}
	ctx.Transcoder().Reset()
	msg := ctx.UPlaneScratch(0)
	if err := pkt.UPlane(msg, a.cfg.RUCarrier.NumPRB); err != nil {
		return err
	}
	out := ctx.UPlaneScratch(1)
	for idx := range a.cfg.DUs {
		if requesters&(1<<uint(idx)) == 0 {
			continue
		}
		du := a.cfg.DUs[idx]
		*out = oran.UPlaneMsg{Timing: t, Sections: out.Sections[:0]}
		for i := range msg.Sections {
			s := &msg.Sections[i]
			carved, ok, err := a.carve(ctx, s, idx)
			if err != nil {
				return err
			}
			if ok {
				//ranvet:allow alloc appends into the shard's reusable staging message; the backing array amortizes across frames
				out.Sections = append(out.Sections, carved)
			}
		}
		if len(out.Sections) == 0 {
			continue
		}
		replica := ctx.Replicate(pkt)
		rebuilt := ctx.Rebuild(replica, out.AppendTo)
		pc := rebuilt.EAxC()
		pc.DUPort = du.PortID
		rebuilt.SetEAxC(pc)
		ctx.ChargeHeaderMod()
		if err := ctx.Redirect(rebuilt, du.MAC, a.cfg.MAC, -1); err != nil {
			return err
		}
		a.Demuxed.Add(1)
	}
	ctx.Drop(pkt)
	return nil
}

// carve extracts the window of section s (on the RU grid) that belongs to
// DU idx, re-based onto the DU's grid.
func (a *App) carve(ctx *core.Context, s *oran.USection, idx int) (oran.USection, bool, error) {
	du := a.cfg.DUs[idx]
	lo := a.offset[idx]
	hi := lo + du.Carrier.NumPRB
	sLo, sHi := s.StartPRB, s.StartPRB+s.NumPRB
	if sHi <= lo || sLo >= hi {
		return oran.USection{}, false, nil
	}
	if sLo < lo {
		sLo = lo
	}
	if sHi > hi {
		sHi = hi
	}
	n := sHi - sLo
	sec := oran.USection{
		SectionID: s.SectionID,
		StartPRB:  sLo - lo, // re-based to the DU grid
		NumPRB:    n,
		Comp:      s.Comp,
	}
	size := s.Comp.PRBSize()
	start := (sLo - s.StartPRB) * size
	if a.align[idx] {
		ctx.ChargeCopyAligned(n)
		a.AlignedCopies.Add(1)
		sec.Payload = ctx.Transcoder().AppendBytes(s.Payload[start : start+n*size])
		return sec, true, nil
	}
	var err error
	sec.Payload, err = a.transcode(ctx, s.Payload[start:], s.Comp, n)
	return sec, err == nil, err
}
