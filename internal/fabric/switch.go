// Package fabric is the Ethernet substrate of the testbed: a virtual
// VLAN-aware learning switch standing in for the 100GbE Arista fabric of
// §6.1, and an SR-IOV NIC model whose virtual functions and embedded
// switch realize the middlebox chaining of Fig. 8 (including the PCIe
// throughput bookkeeping that §5 identifies as the chaining bottleneck).
//
// Frames are delivered on the simulation clock with per-link serialization
// delay plus a fixed forwarding latency, so end-to-end fronthaul deadline
// checks see realistic transport times. Ownership rule: a frame buffer
// passed to Send belongs to the fabric; each receiver gets a buffer it may
// mutate freely (flooded copies are made per extra receiver).
package fabric

import (
	"fmt"
	"sync/atomic"
	"time"

	"ranbooster/internal/eth"
	"ranbooster/internal/sim"
)

// PortStats counts traffic through a port, from the device's perspective:
// Tx is what the device sent into the fabric.
type PortStats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
}

// portCounters is the live, atomically-updated form of PortStats. The
// fabric path mutates them on the scheduler goroutine, but an engine in
// parallel worker mode transmits through Port.Send from its worker
// goroutines, and tests read Stats concurrently — so the counters must be
// atomic rather than plain words.
type portCounters struct {
	txFrames, txBytes atomic.Uint64
	rxFrames, rxBytes atomic.Uint64
}

// Port is an attachment point on a switch. Devices transmit with Send and
// receive through the handler registered at creation.
type Port struct {
	name    string
	sw      *Switch
	index   int
	handler func(frame []byte)
	stats   portCounters
	// tx, when set, interposes on the device→fabric direction (fault
	// injection); see SetTxInterceptor.
	tx func(frame []byte, forward func(frame []byte))
	// busyUntil models egress serialization: one frame at a time per port.
	busyUntil sim.Time
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Stats returns a snapshot of the port counters. It is safe to call while
// frames flow, including from outside the scheduler goroutine.
func (p *Port) Stats() PortStats {
	return PortStats{
		TxFrames: p.stats.txFrames.Load(),
		TxBytes:  p.stats.txBytes.Load(),
		RxFrames: p.stats.rxFrames.Load(),
		RxBytes:  p.stats.rxBytes.Load(),
	}
}

// SetTxInterceptor interposes fn on the device→fabric direction: Send
// hands each frame to fn together with the forward continuation instead
// of forwarding into the switch directly. fn may forward the frame
// unchanged, mutate it in place (the interceptor owns the buffer, like
// the fabric it stands in for), forward it several times, forward it
// later from a scheduler event, or not at all — the hook point a fault
// injector models a lossy link through. A nil fn removes the
// interceptor.
func (p *Port) SetTxInterceptor(fn func(frame []byte, forward func(frame []byte))) {
	p.tx = fn
}

// Send transmits a frame from the attached device into the switch. The
// fabric takes ownership of the buffer.
func (p *Port) Send(frame []byte) {
	if p.tx != nil {
		p.tx(frame, func(f []byte) { p.sw.ingress(p, f) })
		return
	}
	p.sw.ingress(p, frame)
}

type fdbKey struct {
	vlan uint16
	mac  eth.MAC
}

const untaggedVLAN = 0xffff

// Switch is a VLAN-aware learning L2 switch.
type Switch struct {
	name    string
	sched   *sim.Scheduler
	ports   []*Port
	fdb     map[fdbKey]*Port
	latency time.Duration
	// LineRateGbps sets per-port serialization speed (0 disables the model).
	lineRateGbps float64

	flooded uint64
	dropped uint64

	tap func(frame []byte)
}

// SetTap installs a port-mirroring tap: fn observes every frame entering
// the switch (the capture hook behind cmd/fhdissect). The frame belongs
// to the fabric; taps must copy if they retain it.
func (s *Switch) SetTap(fn func(frame []byte)) { s.tap = fn }

// NewSwitch creates a switch with the given forwarding latency and port
// line rate in Gbit/s.
func NewSwitch(sched *sim.Scheduler, name string, latency time.Duration, lineRateGbps float64) *Switch {
	return &Switch{
		name:         name,
		sched:        sched,
		fdb:          make(map[fdbKey]*Port),
		latency:      latency,
		lineRateGbps: lineRateGbps,
	}
}

// AddPort attaches a device. The handler runs on the simulation goroutine
// when a frame is delivered.
func (s *Switch) AddPort(name string, handler func(frame []byte)) *Port {
	p := &Port{name: name, sw: s, index: len(s.ports), handler: handler}
	s.ports = append(s.ports, p)
	return p
}

// Ports returns the switch's attachment points in creation order.
func (s *Switch) Ports() []*Port { return s.ports }

// PortByName returns the named port, or nil — the lookup experiment
// runners use to attach fault injectors to an assembled testbed.
func (s *Switch) PortByName(name string) *Port {
	for _, p := range s.ports {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Flooded reports how many frames were flooded (unknown unicast, broadcast).
func (s *Switch) Flooded() uint64 { return s.flooded }

// Dropped reports frames dropped for lack of any destination.
func (s *Switch) Dropped() uint64 { return s.dropped }

func vlanOf(h *eth.Header) uint16 {
	if h.HasVLAN {
		return h.VLANID
	}
	return untaggedVLAN
}

func (s *Switch) ingress(in *Port, frame []byte) {
	in.stats.txFrames.Add(1)
	in.stats.txBytes.Add(uint64(len(frame)))
	if s.tap != nil {
		s.tap(frame)
	}
	var h eth.Header
	if _, err := h.DecodeFromBytes(frame); err != nil {
		s.dropped++
		return
	}
	vlan := vlanOf(&h)
	// Learn the source.
	if !h.Src.IsZero() {
		s.fdb[fdbKey{vlan: vlan, mac: h.Src}] = in
	}
	if !h.Dst.IsBroadcast() {
		if out, ok := s.fdb[fdbKey{vlan: vlan, mac: h.Dst}]; ok {
			if out != in {
				s.deliver(out, frame)
			} else {
				s.dropped++ // hairpin: destination learned on the ingress port
			}
			return
		}
	}
	// Flood.
	s.flooded++
	first := true
	for _, p := range s.ports {
		if p == in {
			continue
		}
		if first {
			s.deliver(p, frame)
			first = false
			continue
		}
		cp := make([]byte, len(frame))
		copy(cp, frame)
		s.deliver(p, cp)
	}
	if first {
		s.dropped++ // nowhere to go
	}
}

func (s *Switch) deliver(out *Port, frame []byte) {
	now := s.sched.Now()
	start := now
	if out.busyUntil > start {
		start = out.busyUntil
	}
	var ser time.Duration
	if s.lineRateGbps > 0 {
		ser = time.Duration(float64(len(frame)*8) / s.lineRateGbps) // ns per bit at G bits/s
	}
	out.busyUntil = start.Add(ser)
	s.sched.AtFrame(out.busyUntil.Add(s.latency), (*portRx)(out), frame)
}

// portRx is an output Port seen as a sim.FrameSink: the arrival of a
// switched frame at the attached device.
type portRx Port

// DeliverFrame counts the frame as received and hands it to the device.
func (p *portRx) DeliverFrame(frame []byte) {
	p.stats.rxFrames.Add(1)
	p.stats.rxBytes.Add(uint64(len(frame)))
	if p.handler != nil {
		p.handler(frame)
	}
}

// String identifies the switch.
func (s *Switch) String() string { return fmt.Sprintf("switch(%s, %d ports)", s.name, len(s.ports)) }
