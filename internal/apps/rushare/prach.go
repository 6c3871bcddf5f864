package rushare

import (
	"math/bits"

	"ranbooster/internal/core"
	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
)

// Algorithm 3: PRACH multiplexing. Unlike data channels, the RU returns
// only the PRBs each type 3 section requested, so the middlebox appends
// every DU's sections into one C-plane message — after translating each
// frequency offset into the RU's spectrum (Appendix A.1.2) and stamping
// the owning DU's id into the section id — and demultiplexes the uplink
// response sections by that id.

// prachCPlane caches tenant requests and emits the merged message once
// every tenant's occasion request arrived.
func (a *App) prachCPlane(ctx *core.Context, pkt *fh.Packet, t oran.Timing) error {
	key := cKey(t, pkt.EAxC().RUPort, true)
	ctx.Cache(key, pkt)
	if bits.OnesCount64(a.duSet(ctx.Cached(key))) < len(a.cfg.DUs) {
		return nil
	}
	pkts := ctx.TakeCached(key)
	out := oran.CPlaneMsg{
		Timing:      t,
		SectionType: oran.SectionType3,
		Comp:        a.cfg.Comp,
	}
	var msg oran.CPlaneMsg
	for _, p := range pkts {
		idx := a.byMAC[p.Eth.Src]
		du := a.cfg.DUs[idx]
		if err := p.CPlane(&msg, du.Carrier.NumPRB); err != nil {
			return err
		}
		out.TimeOffset = msg.TimeOffset
		out.FrameStructure = msg.FrameStructure
		out.CPLength = msg.CPLength
		for i := range msg.Sections {
			s := msg.Sections[i]
			s.FreqOffset = phy.TranslateFreqOffset(s.FreqOffset, du.Carrier, a.cfg.RUCarrier)
			s.SectionID = uint16(du.PortID)
			ctx.ChargeHeaderMod()
			//ranvet:allow alloc merged PRACH message built once per occasion, not per frame
			out.Sections = append(out.Sections, s)
		}
	}
	merged := ctx.Rebuild(pkts[0], out.AppendTo)
	a.PRACHMuxed.Add(1)
	return ctx.Redirect(merged, a.cfg.RU, a.cfg.MAC, -1)
}

// prachULDemux splits the RU's PRACH response: each DU receives a packet
// holding only the sections stamped with its id.
func (a *App) prachULDemux(ctx *core.Context, pkt *fh.Packet, t oran.Timing) error {
	tx := ctx.Transcoder()
	tx.Reset()
	msg := ctx.UPlaneScratch(0)
	if err := pkt.UPlane(msg, a.cfg.RUCarrier.NumPRB); err != nil {
		return err
	}
	out := ctx.UPlaneScratch(1)
	for idx := range a.cfg.DUs {
		du := a.cfg.DUs[idx]
		*out = oran.UPlaneMsg{Timing: t, Sections: out.Sections[:0]}
		for i := range msg.Sections {
			if msg.Sections[i].SectionID == uint16(du.PortID) {
				s := msg.Sections[i]
				s.Payload = tx.AppendBytes(s.Payload)
				//ranvet:allow alloc appends into the shard's reusable staging message; the backing array amortizes across occasions
				out.Sections = append(out.Sections, s)
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
	}
	ctx.Drop(pkt)
	return nil
}
