package testbed

import (
	"fmt"
	"math"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fabric"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// MetroConfig sizes a metro-scale scenario: the aggregation deployment of
// §7 where one operator fronthaul carries hundreds of RUs through a chain
// of RANBooster middleboxes on successive fabric hops. Unlike the
// building testbed (TB), a Metro does not model the air interface or
// per-UE state — cells are aggregate traffic sources whose per-slot
// arrivals follow a Poisson process drawn from the scenario RNG, which is
// what lets a single simulation hold thousands of eAxC streams without a
// goroutine per UE.
type MetroConfig struct {
	// Floors × CellsPerFloor is the cell (= RU) count. Defaults 5 × 4.
	Floors, CellsPerFloor int
	// PortsPerRU is the number of eAxC streams per RU (default 4). The
	// stream universe is Cells × PortsPerRU and must fit the 16-bit eAxC
	// space.
	PortsPerRU int
	// ChainDepth is how many middlebox engines the fronthaul traverses,
	// each on its own fabric switch (default 2, the Fig. 8 daisy chain).
	ChainDepth int
	// Cores per engine.
	Cores int
	// Scale selects the engines' admission layout (work stealing or the
	// static hash).
	Scale core.ScalePolicy
	// MeanPerSlot is the Poisson mean of U-plane frames per cell per slot
	// (default 1).
	MeanPerSlot float64
	// Seed drives every random draw; same seed, same run.
	Seed uint64
	// Trace turns on the engines' span collectors (latency percentiles).
	Trace bool
	// Kernel chains the hops with in-kernel XDP redirect rules instead of
	// a userspace forwarding app.
	Kernel bool
}

func (c MetroConfig) withDefaults() MetroConfig {
	if c.Floors == 0 {
		c.Floors = Floors
	}
	if c.CellsPerFloor == 0 {
		c.CellsPerFloor = 4
	}
	if c.PortsPerRU == 0 {
		c.PortsPerRU = 4
	}
	if c.ChainDepth == 0 {
		c.ChainDepth = 2
	}
	if c.MeanPerSlot == 0 {
		c.MeanPerSlot = 1
	}
	return c
}

// Cells is the RU count of the laid-out metro.
func (c MetroConfig) Cells() int { return c.Floors * c.CellsPerFloor }

// Streams is the eAxC stream count of the laid-out metro.
func (c MetroConfig) Streams() int { return c.Cells() * c.PortsPerRU }

// chainApp is the userspace middlebox of a chain hop: pure A1 redirection
// of every frame to the next hop (middlebox or sink), the minimal
// bump-in-the-wire of Fig. 3.
type chainApp struct {
	name       string
	next, self eth.MAC
}

func (a *chainApp) Name() string { return a.name }

func (a *chainApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	return ctx.Redirect(pkt, a.next, a.self, -1)
}

// metroCell is one aggregate traffic source: a fabric port, a builder
// holding per-eAxC sequence counters, and a forked RNG for its arrival
// process.
type metroCell struct {
	port    *fabric.Port
	b       *fh.Builder
	rng     *sim.RNG
	streams []ecpri.PcID
}

// MetroSinkStats is what the far end of the chain observed, the ground
// truth the conservation and FIFO checks compare against.
type MetroSinkStats struct {
	// Delivered counts frames that survived every hop.
	Delivered uint64
	// Gaps is the per-stream count of missing sequence numbers (frames
	// lost in flight); zero on a fault-free fabric.
	Gaps uint64
	// Duplicates and Reordered are per-eAxC FIFO violations: a healthy
	// chain never produces either, with or without loss.
	Duplicates, Reordered uint64
	// ParseErrors counts undecodable arrivals (corruption faults).
	ParseErrors uint64
	// Streams is how many distinct eAxC streams reached the sink.
	Streams int
}

// metroSink terminates the chain: it decodes every arrival and tracks
// per-eAxC sequence continuity the same way the engines do (delta 1 ok,
// small delta = gap, 0 = duplicate, large = reorder).
type metroSink struct {
	port  *fabric.Port
	last  map[uint16]uint8
	stats MetroSinkStats
}

func (s *metroSink) ingress(frame []byte) {
	var p fh.Packet
	if err := p.Decode(frame); err != nil {
		s.stats.ParseErrors++
		return
	}
	s.stats.Delivered++
	key := p.Ecpri.PcID.Uint16()
	seq := p.Ecpri.SeqID
	last, ok := s.last[key]
	if !ok {
		s.last[key] = seq
		return
	}
	switch delta := seq - last; {
	case delta == 0:
		s.stats.Duplicates++
	case delta < 128:
		s.stats.Gaps += uint64(delta) - 1
		s.last[key] = seq
	default:
		s.stats.Reordered++
	}
}

// Metro is an assembled metro scenario: ChainDepth switches in a line,
// one engine per switch, all cells attached to the first switch and the
// sink to the last, with every destination MAC primed into the fabric so
// accounting is exact from the first frame.
type Metro struct {
	Sched   *sim.Scheduler
	Topo    *fabric.Topology
	Trunks  []fabric.Trunk
	Engines []*core.Engine
	// EnginePorts carry the per-hop fabric counters (arrived/forwarded).
	EnginePorts []*fabric.Port

	cfg      MetroConfig
	cells    []*metroCell
	sink     *metroSink
	payload  []byte
	slot     int
	injected uint64
}

// NewMetro lays the scenario out. It fails on impossible dimensions (a
// stream universe beyond the 16-bit eAxC space, or an invalid engine
// configuration).
func NewMetro(cfg MetroConfig) (*Metro, error) {
	cfg = cfg.withDefaults()
	if cfg.Streams() > 1<<16 {
		return nil, fmt.Errorf("metro: %d streams exceed the 16-bit eAxC space", cfg.Streams())
	}
	sched := sim.NewScheduler()
	m := &Metro{Sched: sched, Topo: fabric.NewTopology(sched), cfg: cfg}
	rng := sim.NewRNG(cfg.Seed)

	sws := make([]*fabric.Switch, cfg.ChainDepth)
	for k := range sws {
		sw, err := m.Topo.AddSwitch(fmt.Sprintf("metro-%d", k), 2*time.Microsecond, 100)
		if err != nil {
			return nil, err
		}
		sws[k] = sw
	}
	trunks, err := m.Topo.Chain(sws...)
	if err != nil {
		return nil, err
	}
	m.Trunks = trunks

	engineMAC := func(k int) eth.MAC { return eth.MAC{0x02, 0, 0, 0, 0x02, byte(k + 1)} }
	sinkMAC := eth.MAC{0x02, 0, 0, 0, 0x02, 0xff}
	for k := 0; k < cfg.ChainDepth; k++ {
		next := sinkMAC
		if k < cfg.ChainDepth-1 {
			next = engineMAC(k + 1)
		}
		ecfg := core.Config{
			Name:        fmt.Sprintf("mbx-%d", k),
			Mode:        core.ModeDPDK,
			App:         &chainApp{name: fmt.Sprintf("chain-%d", k), next: next, self: engineMAC(k)},
			CarrierPRBs: Carrier100().NumPRB,
			Cores:       cfg.Cores,
			Scale:       cfg.Scale,
			Trace:       cfg.Trace,
		}
		if cfg.Kernel {
			nextHop := next
			ecfg.Mode = core.ModeXDP
			ecfg.App = nil
			ecfg.Kernel = &core.KernelProgram{Rules: []core.Rule{{
				Verdict: core.VerdictTx,
				Rewrite: &core.Rewrite{SetDst: &nextHop},
			}}}
		}
		e, err := core.NewEngine(sched, ecfg)
		if err != nil {
			return nil, err
		}
		mac := engineMAC(k)
		port := sws[k].AddPort(e.Name(), func(frame []byte) {
			if len(frame) >= 6 {
				var dst eth.MAC
				copy(dst[:], frame[:6])
				if dst != mac && !dst.IsBroadcast() {
					return
				}
			}
			e.Ingress(frame)
		})
		e.SetOutput(sendCopy(port))
		if err := m.Topo.Learn(mac, -1, port); err != nil {
			return nil, err
		}
		m.Engines = append(m.Engines, e)
		m.EnginePorts = append(m.EnginePorts, port)
	}

	m.sink = &metroSink{last: make(map[uint16]uint8)}
	m.sink.port = sws[cfg.ChainDepth-1].AddPort("sink", m.sink.ingress)
	if err := m.Topo.Learn(sinkMAC, -1, m.sink.port); err != nil {
		return nil, err
	}

	// One shared 4-PRB BFP payload: cells differ by addressing and
	// sequence numbers, not IQ content, and sharing it keeps frame
	// synthesis cheap enough for metro-sized soaks.
	m.payload, err = bfp.CompressGrid(nil, iq.NewGrid(4), BFP9())
	if err != nil {
		return nil, err
	}

	for c := 0; c < cfg.Cells(); c++ {
		cellMAC := eth.MAC{0x02, 0, 0, 0x01, byte(c >> 8), byte(c)}
		cell := &metroCell{
			b:   fh.NewBuilder(cellMAC, engineMAC(0), -1),
			rng: rng.Fork(),
		}
		cell.port = sws[0].AddPort(fmt.Sprintf("cell-%d", c), nil)
		for p := 0; p < cfg.PortsPerRU; p++ {
			cell.streams = append(cell.streams, ecpri.PcIDFromUint16(uint16(c*cfg.PortsPerRU+p)))
		}
		m.cells = append(m.cells, cell)
	}
	return m, nil
}

// Config returns the resolved scenario dimensions.
func (m *Metro) Config() MetroConfig { return m.cfg }

// Injected counts frames the cells have put on the fabric so far.
func (m *Metro) Injected() uint64 { return m.injected }

// Sink returns the far end's observations.
func (m *Metro) Sink() MetroSinkStats {
	st := m.sink.stats
	st.Streams = len(m.sink.last)
	return st
}

// inject synthesizes one uplink U-plane frame on the given cell stream
// and puts it on the fabric, addressed to the first chain hop.
func (m *Metro) inject(cell *metroCell, stream ecpri.PcID) {
	msg := &oran.UPlaneMsg{
		Timing: oran.Timing{
			Direction:  oran.Uplink,
			FrameID:    uint8(m.slot / phy.SlotsPerFrame),
			SubframeID: uint8(m.slot % phy.SlotsPerFrame / phy.SlotsPerSubframe),
			SlotID:     uint8(m.slot % phy.SlotsPerSubframe),
		},
		Sections: []oran.USection{{NumPRB: 4, Comp: BFP9(), Payload: m.payload}},
	}
	cell.port.Send(cell.b.UPlane(stream, msg))
	m.injected++
}

// poisson draws from Poisson(mean) by Knuth inversion — fine for the
// small per-slot means cells use.
func poisson(rng *sim.RNG, mean float64) int {
	threshold := math.Exp(-mean)
	l := 1.0
	for k := 0; ; k++ {
		l *= rng.Float64()
		if l < threshold {
			return k
		}
	}
}

// RunSlots advances the scenario n slots: each slot, every cell draws
// its arrival count from its own Poisson process and injects on
// uniformly chosen eAxC streams, then the fabric and engines run to the
// slot boundary on the virtual clock.
func (m *Metro) RunSlots(n int) {
	start := m.Sched.Now()
	for s := 0; s < n; s++ {
		for _, cell := range m.cells {
			arrivals := poisson(cell.rng, m.cfg.MeanPerSlot)
			for i := 0; i < arrivals; i++ {
				m.inject(cell, cell.streams[cell.rng.Intn(len(cell.streams))])
			}
		}
		m.slot++
		m.Sched.RunUntil(start.Add(time.Duration(s+1) * phy.SlotDuration))
	}
	// Drain in-flight deliveries past the final slot boundary.
	m.Sched.Run()
}

// Flush pushes one more frame down every stream of every cell and drains
// the fabric. After a fault window this surfaces every outstanding
// sequence gap at the engines and the sink (a tail drop is invisible
// until the stream's next clean frame), making loss accounting exact.
func (m *Metro) Flush() {
	for _, cell := range m.cells {
		for _, stream := range cell.streams {
			m.inject(cell, stream)
		}
	}
	m.Sched.Run()
}

// HopReport is the conservation ledger of one chain hop.
type HopReport struct {
	Arrived   uint64 // frames the fabric delivered to the engine's port
	Forwarded uint64 // frames the engine put back on the fabric
	Lost      uint64 // engine-internal losses per the stats taxonomy
}

// ConservationReport is the frame ledger of a finished run.
type ConservationReport struct {
	Injected uint64
	Hops     []HopReport
	Sink     MetroSinkStats
	// TrunkDropped is fault-injector loss the caller accounts between
	// hops (zero on a clean fabric).
	TrunkDropped uint64
}

// Check verifies frame conservation end to end: every injected frame is
// delivered, dropped by a hop for an accounted reason, or dropped on a
// trunk by a fault injector — and each hop's own ledger balances.
func (r ConservationReport) Check() error {
	for k, h := range r.Hops {
		if h.Arrived != h.Forwarded+h.Lost {
			return fmt.Errorf("hop %d leaks frames: arrived %d != forwarded %d + lost %d",
				k, h.Arrived, h.Forwarded, h.Lost)
		}
	}
	accounted := r.Sink.Delivered + r.TrunkDropped
	for _, h := range r.Hops {
		accounted += h.Lost
	}
	if r.Injected != accounted {
		return fmt.Errorf("chain leaks frames: injected %d != accounted %d (delivered %d, trunk %d)",
			r.Injected, accounted, r.Sink.Delivered, r.TrunkDropped)
	}
	return nil
}

// Conservation assembles the ledger from the fabric port counters (the
// authoritative arrived/forwarded view) and the engine stats (the loss
// taxonomy). trunkDropped is the summed Dropped of any fault injectors
// the caller attached to the trunks.
func (m *Metro) Conservation(trunkDropped uint64) ConservationReport {
	r := ConservationReport{Injected: m.injected, Sink: m.Sink(), TrunkDropped: trunkDropped}
	for k, e := range m.Engines {
		ps := m.EnginePorts[k].Stats()
		st := e.Snapshot()
		r.Hops = append(r.Hops, HopReport{
			Arrived:   ps.RxFrames,
			Forwarded: ps.TxFrames,
			Lost: st.ParseError + st.InvalidFrames + st.AppDrops + st.AppErrors +
				st.KernelDrop + st.RingDrops + st.ShedUPlane + st.ShedPRACH + st.Quarantined,
		})
	}
	return r
}
