package main

import (
	"ranbooster/internal/apps/das"
	"ranbooster/internal/apps/dmimo"
	"ranbooster/internal/apps/prbmon"
	"ranbooster/internal/apps/rushare"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// Addressing shared by the workloads: one middlebox between up to two DUs
// and up to four RUs.
var (
	macMB  = eth.MAC{2, 0, 0, 0, 0, 0x01}
	macDU  = eth.MAC{2, 0, 0, 0, 0, 0x10}
	macDU2 = eth.MAC{2, 0, 0, 0, 0, 0x11}
	macRUs = []eth.MAC{{2, 0, 0, 0, 0, 0x20}, {2, 0, 0, 0, 0, 0x21}, {2, 0, 0, 0, 0, 0x22}, {2, 0, 0, 0, 0, 0x23}}
)

const (
	carrierPRBs = 273 // 100 MHz at 30 kHz SCS
	centerHz    = 3_460_000_000
)

// appCounts is what the reference app of a run counted; the fields that do
// not belong to the workload's app stay zero.
type appCounts struct {
	merges, muxed, demuxed, ssbReplicas uint64
}

// workload is one benchmark input: a corpus generator, the engine that
// consumes it, and the granularity at which the replay is timed.
type workload struct {
	name string
	// slots is the corpus length. It is a multiple of the 40-slot SSB
	// period, and for rushare long enough that a slot's C-plane cache
	// entries have been swept before the corpus wraps onto the same slot
	// coordinates.
	slots int
	// burstsPerSlot is 14 when a symbol's frames are already 15-100 µs of
	// work, 1 when it takes a whole slot to get there.
	burstsPerSlot int
	// warmCycles corpus cycles run untimed before measuring, sized so
	// set-up takes about half a second on the reference box.
	warmCycles int
	xdp        bool
	gen        func(g *gen)
	engine     func(s *sim.Scheduler, trace bool) (*core.Engine, func() appCounts, error)
	// replay makes, on a stager's scratch copy of a burst, the public layer
	// calls the engine and the app are known to make for it (stages.go).
	replay func(s *stager)
}

// engineFunc returns the workload's engine constructor with the engine's
// own span collector (Config.Trace) on or off.
func (w *workload) engineFunc(trace bool) engineFunc {
	return func(s *sim.Scheduler) (*core.Engine, func() appCounts, error) { return w.engine(s, trace) }
}

var workloads = []*workload{
	{name: "das_merge", slots: 40, burstsPerSlot: phy.SymbolsPerSlot, warmCycles: 4, gen: genDAS, engine: engineDAS, replay: replayDAS},
	{name: "rushare_mux", slots: 80, burstsPerSlot: phy.SymbolsPerSlot, warmCycles: 4, gen: genRUShare, engine: engineRUShare, replay: replayRUShare},
	{name: "prbmon_xdp", slots: 40, burstsPerSlot: phy.SymbolsPerSlot, warmCycles: 40, xdp: true, gen: genPRBMon, engine: enginePRBMon, replay: replayPRBMon},
	{name: "dmimo_small", slots: 40, burstsPerSlot: 1, warmCycles: 200, gen: genDMIMO, engine: engineDMIMO, replay: replayDMIMO},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// corpus generates the workload's input for a seed. Every slot of a
// workload has the same frame sizes, so a one-slot dry run sizes the real
// corpus exactly: it is built in place in one off-heap mapping.
func (w *workload) corpus(seed int64) *corpus {
	dry := newGen(seed, 1, w.burstsPerSlot)
	w.gen(dry)
	g := newGen(seed, w.slots, w.burstsPerSlot)
	g.c.bytes = offHeap(len(dry.c.bytes) * w.slots)[:0]
	g.c.frames = make([]frameRef, 0, len(dry.c.frames)*w.slots)
	w.gen(g)
	return g.finish()
}

// genDAS: one DU and four RUs on 273-PRB carriers. Per slot the DU sends a
// DL and a UL C-plane request (each replicated to the four RUs); per symbol
// it sends one DL U-plane frame (replicated ×4) and every RU answers with a
// UL U-plane frame, the fourth of which completes the merge.
func genDAS(g *gen) {
	pc := ecpri.PcID{}
	for abs := 0; abs < g.c.slots; abs++ {
		for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
			if sym == 0 {
				g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, oran.Downlink), carrierPRBs), macDU, pc, len(macRUs), 0)
				g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, oran.Uplink), carrierPRBs), macDU, pc, len(macRUs), 0)
			}
			g.add(g.uplane(macDU, macMB, pc, timing(abs, sym, oran.Downlink), 0, carrierPRBs, false), macDU, pc, len(macRUs), 0)
			for i, ru := range macRUs {
				out := 0
				if i == len(macRUs)-1 {
					out = 1
				}
				g.add(g.uplane(ru, macMB, pc, timing(abs, sym, oran.Uplink), 0, carrierPRBs, false), ru, pc, out, 0)
			}
			g.endBurst()
		}
	}
}

func engineDAS(s *sim.Scheduler, trace bool) (*core.Engine, func() appCounts, error) {
	app := das.New(das.Config{Name: "das", MAC: macMB, DU: macDU, RUs: macRUs, CarrierPRBs: carrierPRBs})
	eng, err := core.NewEngine(s, core.Config{Name: "das", Mode: core.ModeDPDK, App: app, CarrierPRBs: carrierPRBs, Trace: trace})
	return eng, func() appCounts { return appCounts{merges: app.Merges.Load()} }, err
}

// rushareCarriers places two 40 MHz tenants at the edges of a 100 MHz RU,
// each half a subcarrier off the RU's PRB grid, which forces the
// decompress/recompress relocation path.
func rushareCarriers() (ru, a, b phy.Carrier) {
	ru = phy.NewCarrier(100, centerHz)
	n := phy.PRBsFor(40)
	a = phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ru, 0, n) + phy.SCS/2, NumPRB: n}
	b = phy.Carrier{BandwidthMHz: 40, CenterHz: phy.AlignedDUCenterHz(ru, ru.NumPRB-n, n) + phy.SCS/2, NumPRB: n}
	return ru, a, b
}

// genRUShare: per slot both DUs send a DL and a UL C-plane request (the
// first of each direction is widened and forwarded, all four are cached
// until swept); per symbol both DUs send a DL U-plane frame (muxed into one
// once the second arrives) and the RU sends a full-spectrum UL U-plane frame
// (carved into one per tenant, the original dropped).
func genRUShare(g *gen) {
	_, ca, cb := rushareCarriers()
	pc := ecpri.PcID{}
	ru := macRUs[0]
	for abs := 0; abs < g.c.slots; abs++ {
		for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
			if sym == 0 {
				for _, dir := range []oran.Direction{oran.Downlink, oran.Uplink} {
					g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, dir), ca.NumPRB), macDU, pc, 1, 0)
					g.add(g.cplane(macDU2, macMB, pc, timing(abs, 0, dir), cb.NumPRB), macDU2, pc, 0, 0)
				}
			}
			g.add(g.uplane(macDU, macMB, pc, timing(abs, sym, oran.Downlink), 0, ca.NumPRB, false), macDU, pc, 0, 0)
			g.add(g.uplane(macDU2, macMB, pc, timing(abs, sym, oran.Downlink), 0, cb.NumPRB, false), macDU2, pc, 1, 0)
			g.add(g.uplane(ru, macMB, pc, timing(abs, sym, oran.Uplink), 0, carrierPRBs, false), ru, pc, 2, 1)
			g.endBurst()
		}
	}
}

func engineRUShare(s *sim.Scheduler, trace bool) (*core.Engine, func() appCounts, error) {
	ru, ca, cb := rushareCarriers()
	app, err := rushare.New(rushare.Config{
		Name: "rushare", MAC: macMB, RU: macRUs[0], RUCarrier: ru,
		Comp: bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint},
		DUs: []rushare.DUInfo{
			{MAC: macDU, Carrier: ca, PortID: 1},
			{MAC: macDU2, Carrier: cb, PortID: 2},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(s, core.Config{Name: "rushare", Mode: core.ModeDPDK, App: app, CarrierPRBs: carrierPRBs, Trace: trace})
	return eng, func() appCounts { return appCounts{muxed: app.Muxed.Load(), demuxed: app.Demuxed.Load()} }, err
}

// prbmonPorts is the MIMO layer count of the monitored cell; only port 0
// is scanned, ports 1-3 take the pure in-kernel Tx path.
const prbmonPorts = 4

// genPRBMon: per slot a DL and a UL C-plane request per port; per symbol a
// 273-PRB DL U-plane frame from the DU and a UL one from the RU on each of
// the four ports. Every frame is forwarded once, in kernel.
func genPRBMon(g *gen) {
	ru := macRUs[0]
	for abs := 0; abs < g.c.slots; abs++ {
		for p := 0; p < prbmonPorts; p++ {
			pc := ecpri.PcID{RUPort: uint8(p)}
			g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, oran.Downlink), carrierPRBs), macDU, pc, 1, 0)
			g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, oran.Uplink), carrierPRBs), macDU, pc, 1, 0)
		}
		for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
			for p := 0; p < prbmonPorts; p++ {
				pc := ecpri.PcID{RUPort: uint8(p)}
				g.add(g.uplane(macDU, macMB, pc, timing(abs, sym, oran.Downlink), 0, carrierPRBs, p == 0), macDU, pc, 1, 0)
				g.add(g.uplane(ru, macMB, pc, timing(abs, sym, oran.Uplink), 0, carrierPRBs, p == 0), ru, pc, 1, 0)
			}
			g.endBurst()
		}
	}
}

func enginePRBMon(s *sim.Scheduler, trace bool) (*core.Engine, func() appCounts, error) {
	app := prbmon.New(prbmon.Config{Name: "prbmon", MAC: macMB, DU: macDU, RU: macRUs[0], Carrier: phy.NewCarrier(100, centerHz)})
	// No userspace half: the rule program retires every frame in kernel.
	eng, err := core.NewEngine(s, core.Config{Name: "prbmon", Mode: core.ModeXDP, Kernel: app.KernelProgram(), CarrierPRBs: carrierPRBs, Trace: trace})
	return eng, func() appCounts { return appCounts{} }, err
}

// dmimoRUs is the cluster: two RUs of two antennas presented as one
// four-layer RU.
var dmimoRUs = []dmimo.RUSlot{{MAC: macRUs[0], Ports: 2}, {MAC: macRUs[1], Ports: 2}}

// genDMIMO: the smallest legal frames — one 1-PRB section. Per slot a DL
// C-plane request per layer; per symbol a DL U-plane frame per layer from
// the DU and a UL one per antenna from the RUs. The SSB symbols of layer 0
// are additionally replicated to the secondary RU.
func genDMIMO(g *gen) {
	ssb := phy.DefaultSSB()
	for abs := 0; abs < g.c.slots; abs++ {
		for p := 0; p < 4; p++ {
			pc := ecpri.PcID{RUPort: uint8(p)}
			g.add(g.cplane(macDU, macMB, pc, timing(abs, 0, oran.Downlink), 1), macDU, pc, 1, 0)
		}
		for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
			for p := 0; p < 4; p++ {
				pc := ecpri.PcID{RUPort: uint8(p)}
				out := 1
				if p == 0 && ssb.Occupies(phy.FrameOf(abs), phy.SlotInFrame(abs), sym) {
					out += len(dmimoRUs) - 1
					g.c.ssbReplicas += uint64(len(dmimoRUs) - 1)
				}
				g.add(g.uplane(macDU, macMB, pc, timing(abs, sym, oran.Downlink), 0, 1, false), macDU, pc, out, 0)
			}
			for _, ru := range dmimoRUs {
				for p := 0; p < ru.Ports; p++ {
					pc := ecpri.PcID{RUPort: uint8(p)}
					g.add(g.uplane(ru.MAC, macMB, pc, timing(abs, sym, oran.Uplink), 0, 1, false), ru.MAC, pc, 1, 0)
				}
			}
		}
		g.endBurst()
	}
}

func newDMIMO() *dmimo.App {
	return dmimo.New(dmimo.Config{
		Name: "dmimo", MAC: macMB, DU: macDU, RUs: dmimoRUs,
		SSB: phy.DefaultSSB(), ReplicateSSB: true, CarrierPRBs: carrierPRBs,
	})
}

func engineDMIMO(s *sim.Scheduler, trace bool) (*core.Engine, func() appCounts, error) {
	app := newDMIMO()
	eng, err := core.NewEngine(s, core.Config{Name: "dmimo", Mode: core.ModeDPDK, App: app, CarrierPRBs: carrierPRBs, Trace: trace})
	return eng, func() appCounts { return appCounts{ssbReplicas: app.SSBReplicas.Load()} }, err
}
