package du

import (
	"time"

	"ranbooster/internal/ecpri"
	"ranbooster/internal/iqsynth"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// Fronthaul generation: one slot at a time, emitted on the virtual clock
// with the configured transmit advance.

// cPlaneLead is how much earlier than the slot's first U-plane message the
// C-plane leaves the DU.
const cPlaneLead = 25 * time.Microsecond

// prepareSlot schedules everything the DU does for absSlot: allocation,
// C-plane and U-plane emission, air-oracle registration, and the deferred
// delivery settlement.
func (d *DU) prepareSlot(absSlot int) {
	d.stats.SlotsPrepared++
	d.accrueBacklog()

	frame := phy.FrameOf(absSlot)
	slotInFrame := phy.SlotInFrame(absSlot)
	dlSyms := dlSymbolsOf(d.cfg.Cell.TDD, absSlot)
	ulSyms := ulSymbolsOf(d.cfg.Cell.TDD, absSlot)
	ssbSlot := len(dlSyms) > 0 && d.cfg.Cell.SSB.Occupies(frame%256, slotInFrame, d.cfg.Cell.SSB.StartSymbol)
	prachSlot := len(ulSyms) > 0 && d.cfg.Cell.PRACH.Occupies(frame%256, slotInFrame, d.cfg.Cell.PRACH.StartSymbol)

	dlAllocs := d.scheduleDL(absSlot, len(dlSyms), ssbSlot)
	ulAllocs := d.scheduleUL(absSlot, len(ulSyms), prachSlot)

	book := &slotBook{dlAllocs: dlAllocs, ulAllocs: ulAllocs, ulSyms: ulSyms, ulRecv: make(map[int]*ulRecord)}
	d.books[absSlot] = book

	// Downlink activity feeds the interference model; the PRB×symbol
	// totals are the MAC scheduling log (Fig. 10c's ground truth).
	prbUsed := 0
	for _, a := range dlAllocs {
		prbUsed += a.numPRB
	}
	inst := 0.0
	if len(dlSyms) > 0 {
		inst = float64(prbUsed) / float64(d.cfg.Cell.Carrier.NumPRB)
	}
	d.activity = 0.9*d.activity + 0.1*inst
	d.stats.DLPRBSymSched += uint64(prbUsed * len(dlSyms))
	d.stats.DLPRBSymTotal += uint64(d.cfg.Cell.Carrier.NumPRB * len(dlSyms))
	ulUsed := 0
	for _, a := range ulAllocs {
		ulUsed += a.numPRB
	}
	d.stats.ULPRBSymSched += uint64(ulUsed * len(ulSyms))
	d.stats.ULPRBSymTotal += uint64(d.cfg.Cell.Carrier.NumPRB * len(ulSyms))

	emitted := d.emitDL(absSlot, dlSyms, dlAllocs, ssbSlot)
	d.oracle.ExpectDL(d.cfg.Cell.Name, absSlot, emitted, d.activity)

	if len(ulSyms) > 0 {
		d.emitULRequests(absSlot, ulSyms, ulAllocs, prachSlot)
	}
	for _, a := range ulAllocs {
		d.oracle.RegisterUL(d.cell, absSlot, a.ue, a.startPRB, a.numPRB)
	}
	if prachSlot {
		d.emitPRACHRequest(absSlot)
	}

	// Settle after the last uplink deadline of the slot.
	settleAt := phy.SlotStart(absSlot + 1).Add(d.cfg.ULDeadline + 20*phy.SymbolDuration/10)
	d.sched.At(settleAt, func() { d.creditSlot(absSlot) })
}

// emitAt sends a frame at the given virtual time (clamped to now).
func (d *DU) emitAt(at sim.Time, frame []byte) {
	d.sched.AtFrame(at, (*egress)(d), frame)
}

// egress is the DU seen as a sim.FrameSink: the output function is read
// when the frame leaves, not when it is scheduled.
type egress DU

// DeliverFrame hands one due frame to the attached output function.
func (d *egress) DeliverFrame(frame []byte) {
	if d.out != nil {
		d.out(frame)
	}
}

// emitDL generates the slot's downlink C-plane and U-plane. It returns
// the number of distinct (symbol, port) U-plane messages emitted — the
// completeness denominator for delivery accounting.
func (d *DU) emitDL(absSlot int, dlSyms []int, allocs []alloc, ssbSlot bool) int {
	if len(dlSyms) == 0 {
		return 0
	}
	frame, subframe, slot := phy.SlotCoords(absSlot)
	// C-plane leaves ahead of the first U-plane (the CUS-plane ordering
	// middleboxes like RU sharing depend on).
	cAt := phy.SlotStart(absSlot).Add(-d.cfg.DLAdvance - cPlaneLead)
	maxRank := 0
	for _, a := range allocs {
		if a.rank > maxRank {
			maxRank = a.rank
		}
	}

	// C-plane: one message per antenna port carrying that port's sections.
	for p := 0; p < d.cfg.Cell.MaxLayers; p++ {
		var secs []oran.CSection
		sid := uint16(1)
		if ssbSlot && p == 0 {
			secs = append(secs, oran.CSection{
				SectionID: sid, StartPRB: d.cfg.Cell.SSB.StartPRB, NumPRB: phy.SSBPRBs,
				ReMask: 0xfff, NumSymbol: uint8(phy.SSBSymbols), BeamID: 0,
			})
			sid++
		}
		for _, a := range allocs {
			if p >= a.rank {
				continue
			}
			secs = append(secs, oran.CSection{
				SectionID: sid, StartPRB: a.startPRB, NumPRB: a.numPRB,
				ReMask: 0xfff, NumSymbol: uint8(len(dlSyms)),
			})
			sid++
		}
		if len(secs) == 0 {
			continue
		}
		msg := &oran.CPlaneMsg{
			Timing: oran.Timing{
				Direction: oran.Downlink, PayloadVersion: 1,
				FrameID: frame, SubframeID: subframe, SlotID: slot, SymbolID: uint8(dlSyms[0]),
			},
			SectionType: oran.SectionType1,
			Comp:        d.cfg.Comp,
			Sections:    secs,
		}
		d.emitAt(cAt, d.builder.CPlane(ecpri.PcID{DUPort: d.cfg.DUPortID, BandSector: d.sector(), RUPort: uint8(p)}, msg))
	}

	// U-plane: per symbol, per port.
	emitted := 0
	for _, sym := range dlSyms {
		at := phy.SymbolStart(absSlot, sym).Add(-d.cfg.DLAdvance)
		frameSent := make(map[int]bool)
		ssbHere := ssbSlot && d.cfg.Cell.SSB.Occupies(phy.FrameOf(absSlot)%256, phy.SlotInFrame(absSlot), sym)
		if ssbHere {
			// The SSB rides in its own U-plane message on port 0 (how real
			// DUs section it), which is what lets the dMIMO middlebox
			// mirror it to secondary RUs without touching data sections.
			payload := d.synth.Uniform(nil, phy.SSBPRBs, absSlot+sym, iqsynth.SSBAmplitude)
			msg := &oran.UPlaneMsg{
				Timing: d.uTiming(absSlot, sym),
				Sections: []oran.USection{{
					SectionID: 0, StartPRB: d.cfg.Cell.SSB.StartPRB, NumPRB: phy.SSBPRBs,
					Comp: d.cfg.Comp, Payload: payload,
				}},
			}
			d.emitAt(at, d.builder.UPlane(ecpri.PcID{DUPort: d.cfg.DUPortID, BandSector: d.sector(), RUPort: 0}, msg))
			frameSent[0] = true
			emitted++
		}
		for p := 0; p < maxRank; p++ {
			var secs []oran.USection
			for i, a := range allocs {
				if p >= a.rank {
					continue
				}
				payload := d.synth.Uniform(nil, a.numPRB, absSlot+sym+p+i, iqsynth.DataAmplitude)
				secs = append(secs, oran.USection{
					SectionID: uint16(i + 1), StartPRB: a.startPRB, NumPRB: a.numPRB,
					Comp: d.cfg.Comp, Payload: payload,
				})
			}
			if len(secs) == 0 {
				continue
			}
			msg := &oran.UPlaneMsg{Timing: d.uTiming(absSlot, sym), Sections: secs}
			d.emitAt(at, d.builder.UPlane(ecpri.PcID{DUPort: d.cfg.DUPortID, BandSector: d.sector(), RUPort: uint8(p)}, msg))
			if !frameSent[p] {
				emitted++
			}
		}
	}
	return emitted
}

func (d *DU) uTiming(absSlot, sym int) oran.Timing {
	frame, subframe, slot := phy.SlotCoords(absSlot)
	return oran.Timing{
		Direction: oran.Downlink, PayloadVersion: 1,
		FrameID: frame, SubframeID: subframe, SlotID: slot, SymbolID: uint8(sym),
	}
}

// emitULRequests sends the slot's uplink C-plane: full-band requests on
// every antenna port whenever UEs are attached. A Cat-A RU streams the
// raw IQ of each receive antenna back to the DU (which does the MIMO
// combining), and requesting the whole band even without traffic models
// connected-mode PUCCH/SRS monitoring — the reason idle uplink spectrum
// still crosses the fronthaul as noise-level IQ, which is what Algorithm
// 1's uplink threshold keys on.
func (d *DU) emitULRequests(absSlot int, ulSyms []int, allocs []alloc, prachSlot bool) {
	if len(d.cell.Attached()) == 0 {
		return
	}
	frame, subframe, slot := phy.SlotCoords(absSlot)
	at := phy.SlotStart(absSlot).Add(-d.cfg.DLAdvance)
	for p := 0; p < d.cfg.Cell.MaxLayers; p++ {
		msg := &oran.CPlaneMsg{
			Timing: oran.Timing{
				Direction: oran.Uplink, PayloadVersion: 1,
				FrameID: frame, SubframeID: subframe, SlotID: slot, SymbolID: uint8(ulSyms[0]),
			},
			SectionType: oran.SectionType1,
			Comp:        d.cfg.Comp,
			Sections: []oran.CSection{{
				SectionID: 1, StartPRB: 0, NumPRB: d.cfg.Cell.Carrier.NumPRB,
				ReMask: 0xfff, NumSymbol: uint8(len(ulSyms)),
			}},
		}
		d.emitAt(at, d.builder.CPlane(ecpri.PcID{DUPort: d.cfg.DUPortID, BandSector: d.sector(), RUPort: uint8(p)}, msg))
	}
}

// emitPRACHRequest sends the section type 3 C-plane for an occasion.
func (d *DU) emitPRACHRequest(absSlot int) {
	frame, subframe, slot := phy.SlotCoords(absSlot)
	cfg := d.cfg.Cell.PRACH
	msg := &oran.CPlaneMsg{
		Timing: oran.Timing{
			Direction: oran.Uplink, PayloadVersion: 1, FilterIndex: 1,
			FrameID: frame, SubframeID: subframe, SlotID: slot, SymbolID: uint8(cfg.StartSymbol),
		},
		SectionType:    oran.SectionType3,
		TimeOffset:     0,
		FrameStructure: 0x41,
		CPLength:       0,
		Comp:           d.cfg.Comp,
		Sections: []oran.CSection{{
			SectionID: uint16(d.cfg.DUPortID),
			StartPRB:  cfg.StartPRB, NumPRB: cfg.NumPRB,
			ReMask: 0xfff, NumSymbol: uint8(cfg.NumSymbols),
			FreqOffset: phy.FreqOffsetForPRB(d.cfg.Cell.Carrier, cfg.StartPRB),
		}},
	}
	at := phy.SlotStart(absSlot).Add(-d.cfg.DLAdvance)
	d.emitAt(at, d.builder.CPlane(ecpri.PcID{DUPort: d.cfg.DUPortID, BandSector: d.sector(), RUPort: 0}, msg))
}

// sector is the eAxC BandSector value stamped on every emission: the
// cell's PCI (mod 16), the hook the air oracle uses to attribute
// co-channel transmissions, like a UE decoding the PCI from the SSB.
func (d *DU) sector() uint8 { return uint8(d.cfg.Cell.PCI & 0xf) }
