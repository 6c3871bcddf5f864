// Package testbed assembles the enterprise deployment of §6.1: five
// 50.9 m × 20.9 m floors with four ceiling RUs each, a top-of-rack
// switch, DUs on telco servers, UEs spread across the building, and
// RANBooster middleboxes in the fronthaul path. Examples, system tests
// and every experiment runner build their scenarios from these
// primitives.
package testbed

import (
	"fmt"
	"time"

	"ranbooster/internal/air"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/du"
	"ranbooster/internal/eth"
	"ranbooster/internal/fabric"
	"ranbooster/internal/phy"
	"ranbooster/internal/radio"
	"ranbooster/internal/ru"
	"ranbooster/internal/sim"
)

// BFP9 is the compression every testbed element uses (Fig. 2).
func BFP9() bfp.Params {
	return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint}
}

// Floors in the building.
const Floors = 5

// RUXPositions are the ceiling-mount x coordinates of the four RUs per
// floor (Fig. 9a), evenly covering the 50.9 m length at y midline.
var RUXPositions = [4]float64{6.4, 19.1, 31.8, 44.5}

// RUPosition places standard RU i (0..3) of a floor.
func RUPosition(floor, i int) radio.Point {
	return radio.RUAt(floor, RUXPositions[i], radio.FloorWidth/2)
}

// TB is an assembled testbed.
type TB struct {
	Sched  *sim.Scheduler
	Air    *air.Air
	Switch *fabric.Switch
	RNG    *sim.RNG

	DUs []*du.DU
	RUs []*ru.RU

	macSeq byte
	ueSeq  int
}

// New builds an empty testbed: scheduler, radio model, TOR switch.
func New(seed uint64) *TB {
	sched := sim.NewScheduler()
	return &TB{
		Sched:  sched,
		Air:    air.New(sched, radio.DefaultModel()),
		Switch: fabric.NewSwitch(sched, "tor", 2*time.Microsecond, 100),
		RNG:    sim.NewRNG(seed),
	}
}

// NewMAC allocates a locally-administered unicast MAC.
func (tb *TB) NewMAC() eth.MAC {
	tb.macSeq++
	if tb.macSeq == 0 {
		panic("testbed: MAC space exhausted")
	}
	return eth.MAC{0x02, 0x00, 0x00, 0x00, 0x01, tb.macSeq}
}

// Carrier100 is the default 100 MHz band-78 carrier.
func Carrier100() phy.Carrier { return phy.NewCarrier(100, 3_460_000_000) }

// CellConfig builds a standard cell on a carrier. The PRACH occasion is
// placed on the frame's last uplink slot of the stack's TDD pattern (the
// per-vendor configuration difference §6.2 mentions).
func CellConfig(name string, pci int, carrier phy.Carrier, stack phy.StackProfile, maxLayers int) air.CellConfig {
	tdd := phy.MustTDD(stack.TDDPattern)
	prach := phy.DefaultPRACH()
	for s := phy.SlotsPerFrame - 1; s >= 0; s-- {
		if tdd.Kind(s) == phy.SlotUL {
			prach.Slot = s
			break
		}
	}
	return air.CellConfig{
		Name:      name,
		PCI:       pci,
		Carrier:   carrier,
		TDD:       tdd,
		Stack:     stack,
		SSB:       phy.DefaultSSB(),
		PRACH:     prach,
		MaxLayers: maxLayers,
	}
}

// RUOpts configures AddRU.
type RUOpts struct {
	Carrier phy.Carrier
	Ports   int
	// Cheap selects budget single-antenna-grade elements (Fig. 13).
	Cheap bool
	// Peer is where uplink goes (DU or middlebox MAC).
	Peer eth.MAC
	VLAN int
}

// AddRU creates an RU at pos, attaches it to the switch, and returns it
// with its MAC.
func (tb *TB) AddRU(name string, pos radio.Point, opts RUOpts) (*ru.RU, eth.MAC) {
	if opts.Ports <= 0 {
		opts.Ports = 4
	}
	if opts.Carrier.NumPRB == 0 {
		opts.Carrier = Carrier100()
	}
	mac := tb.NewMAC()
	els := make([]radio.Element, opts.Ports)
	for i := range els {
		if opts.Cheap {
			els[i] = radio.CheapRUElement(pos)
		} else {
			els[i] = radio.DefaultRUElement(pos)
		}
	}
	r := ru.New(tb.Sched, tb.Air, ru.Config{
		Name:     name,
		MAC:      mac,
		PeerMAC:  opts.Peer,
		VLAN:     opts.VLAN,
		Carrier:  opts.Carrier,
		Ports:    opts.Ports,
		Comp:     BFP9(),
		Elements: els,
	})
	port := tb.Switch.AddPort(name, r.Ingress)
	r.SetOutput(port.Send)
	tb.RUs = append(tb.RUs, r)
	return r, mac
}

// DUOpts configures AddDU.
type DUOpts struct {
	Cell air.CellConfig
	// Peer is where downlink goes (RU or middlebox MAC).
	Peer     eth.MAC
	VLAN     int
	DUPortID uint8
}

// AddDU creates a DU, attaches it to the switch and starts its slot loop.
func (tb *TB) AddDU(name string, opts DUOpts) (*du.DU, eth.MAC) {
	mac := tb.NewMAC()
	d := du.New(tb.Sched, tb.Air, du.Config{
		Name:     name,
		MAC:      mac,
		PeerMAC:  opts.Peer,
		VLAN:     opts.VLAN,
		Cell:     opts.Cell,
		Comp:     BFP9(),
		DUPortID: opts.DUPortID,
	})
	port := tb.Switch.AddPort(name, d.Ingress)
	d.SetOutput(port.Send)
	d.Start()
	tb.DUs = append(tb.DUs, d)
	return d, mac
}

// AddEngine attaches a middlebox engine to the switch behind its own MAC:
// only frames addressed to it are delivered (the bump-in-the-wire model
// of Fig. 3, where endpoints address the middlebox as their peer). The
// returned port carries the middlebox's ingress/egress byte counters
// (Fig. 15a's network-load measurement).
//
// Testbed engines run in the engine's deterministic mode: the fabric
// delivers frames from the scheduler goroutine and each is processed
// inline at its virtual arrival time, so runs are bit-identical across
// any Cores setting. Do not Start parallel workers on an attached
// engine — that mode is for wall-clock throughput outside a simulation.
func (tb *TB) AddEngine(e *core.Engine, mac eth.MAC) *fabric.Port {
	port := tb.Switch.AddPort(e.Name(), func(frame []byte) {
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
	return port
}

// sendCopy adapts a fabric port to Engine.SetOutput. The engine only lends
// its output function the frame, while the fabric takes ownership of what
// it is sent — it holds the frame across the switch latency and floods one
// slice to several ports — so the boundary between the two copies.
func sendCopy(port *fabric.Port) func(frame []byte) {
	return func(frame []byte) { port.Send(append([]byte(nil), frame...)) }
}

// AddUE places a UE on a floor and registers it.
func (tb *TB) AddUE(floor int, x, y float64) *air.UE {
	tb.ueSeq++
	u := air.NewUE(tb.ueSeq, radio.UEAt(floor, x, y))
	tb.Air.AddUE(u)
	return u
}

// Run advances the simulation by d, running per-frame UE mobility
// management (idle attach, handover, radio-link failure) on the way.
func (tb *TB) Run(d time.Duration) {
	end := tb.Sched.Now().Add(d)
	for tb.Sched.Now() < end {
		next := tb.Sched.Now().Add(phy.FrameDuration)
		next -= next % sim.Time(phy.FrameDuration)
		if next > end {
			next = end
		}
		tb.Sched.RunUntil(next)
		absSlot := phy.SlotAt(tb.Sched.Now())
		for _, u := range tb.Air.UEs() {
			tb.Air.MaintainUE(u, absSlot)
		}
	}
}

// Settle runs the testbed long enough for attachment and link adaptation
// to converge (a few PRACH periods).
func (tb *TB) Settle() { tb.Run(100 * time.Millisecond) }

// Measure zeroes all UE counters, runs for d, and returns the elapsed
// duration actually measured.
func (tb *TB) Measure(d time.Duration) time.Duration {
	start := tb.Sched.Now()
	for _, u := range tb.Air.UEs() {
		u.StartMeasurement(start)
	}
	tb.Run(d)
	return tb.Sched.Now().Sub(start)
}

// Mbps converts bits/s to Mbit/s for reporting.
func Mbps(bps float64) float64 { return bps / 1e6 }

// DirectCell wires a DU straight to one RU (no middlebox): the Table 2 /
// Fig. 10 baselines.
func (tb *TB) DirectCell(name string, cell air.CellConfig, pos radio.Point, ports int, cheap bool) (*du.DU, *ru.RU) {
	r, ruMAC := tb.AddRU(name+"-ru", pos, RUOpts{Carrier: cell.Carrier, Ports: ports, Cheap: cheap})
	d, duMAC := tb.AddDU(name+"-du", DUOpts{Cell: cell, Peer: ruMAC})
	r.SetPeer(duMAC)
	return d, r
}

// String summarizes the testbed.
func (tb *TB) String() string {
	return fmt.Sprintf("testbed(%d DUs, %d RUs, %d UEs)", len(tb.DUs), len(tb.RUs), len(tb.Air.UEs()))
}
