// Package fh ties the fronthaul protocol stack together: one type, Packet,
// represents a full on-wire frame (Ethernet + optional VLAN + eCPRI +
// O-RAN CUS payload) with cheap access to each layer.
//
// Middleboxes work on Packets: action A1 rewrites addressing in place,
// A2 clones, A3 stores Packets in symbol-keyed caches, and A4 decodes the
// O-RAN payload, mutates it and re-encodes. The decode path is lazy and
// allocation-conscious in the gopacket style: Ethernet and eCPRI headers
// are parsed eagerly (they are fixed-size), the O-RAN message only on
// demand.
package fh

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/oran"
)

// Plane classifies a fronthaul packet.
type Plane uint8

// Plane values.
const (
	PlaneUnknown Plane = iota
	PlaneC             // control
	PlaneU             // user (IQ data)
)

// String names the plane as captures do.
func (p Plane) String() string {
	switch p {
	case PlaneC:
		return "C-Plane"
	case PlaneU:
		return "U-Plane"
	default:
		return "Unknown"
	}
}

// Errors returned by the packet layer.
var (
	ErrNotECPRI = errors.New("fh: not an eCPRI frame")
	ErrPlane    = errors.New("fh: wrong plane for this accessor")
)

// Packet is a decoded fronthaul frame. Frame always holds the full wire
// bytes; header structs are views decoded from it. App aliases Frame.
type Packet struct {
	Frame []byte
	Eth   eth.Header
	Ecpri ecpri.Header
	// App is the O-RAN application payload (timing header onward).
	App []byte
	// appOff is the offset of App within Frame, for in-place patching (the
	// headers before it are 26 bytes at most; a narrow field leaves the
	// marks below room inside the struct's old size).
	appOff int32
	// Mark is scratch for whoever owns the packet (the engine keeps its
	// ownership marks here). Pool clears it on release and never reads it.
	Mark uint8
	// class is the Pool size class Frame's buffer belongs to (classHeap: it
	// is not a pool buffer); free is set while the Packet sits on a Pool's
	// free list. The zero value is an ordinary heap packet.
	class uint8
	free  bool
}

// Decode parses the Ethernet and eCPRI layers of frame into p. The O-RAN
// payload is left un-decoded; use UPlane/CPlane/Timing. p is reusable.
//
//ranvet:hotpath
func (p *Packet) Decode(frame []byte) error {
	p.Frame = frame
	rest, err := p.Eth.DecodeFromBytes(frame)
	if err != nil {
		return err
	}
	if p.Eth.EtherType != eth.TypeECPRI {
		return ErrNotECPRI
	}
	app, err := p.Ecpri.DecodeFromBytes(rest)
	if err != nil {
		return err
	}
	p.App = app
	p.appOff = int32(len(frame) - len(rest) + ecpri.HeaderLen)
	return nil
}

// Plane reports whether the packet is C-plane or U-plane.
func (p *Packet) Plane() Plane {
	switch p.Ecpri.Type {
	case ecpri.MsgIQData:
		return PlaneU
	case ecpri.MsgRTControl:
		return PlaneC
	default:
		return PlaneUnknown
	}
}

// Timing peeks at the radio application header without decoding sections.
func (p *Packet) Timing() (oran.Timing, error) {
	var t oran.Timing
	_, err := t.DecodeFromBytes(p.App)
	return t, err
}

// UPlane decodes the U-plane message into msg (reusable across calls).
// carrierPRBs resolves "all PRBs" section encodings.
func (p *Packet) UPlane(msg *oran.UPlaneMsg, carrierPRBs int) error {
	if p.Plane() != PlaneU {
		return ErrPlane
	}
	return msg.DecodeFromBytes(p.App, carrierPRBs)
}

// CPlane decodes the C-plane message into msg (reusable across calls).
func (p *Packet) CPlane(msg *oran.CPlaneMsg, carrierPRBs int) error {
	if p.Plane() != PlaneC {
		return ErrPlane
	}
	return msg.DecodeFromBytes(p.App, carrierPRBs)
}

// EAxC returns the extended antenna-carrier identifier of the packet.
func (p *Packet) EAxC() ecpri.PcID { return p.Ecpri.PcID }

// peekECPRI is the header walk the raw-frame peeks share: it reads only the
// fixed-offset Ethernet type (skipping one optional 802.1Q tag) and
// returns the frame from its eCPRI common header on — nil when the frame
// is too short to tell or not eCPRI. Whether the 8-byte header is all
// there is the caller's check.
func peekECPRI(frame []byte) []byte {
	if len(frame) < eth.HeaderLen {
		return nil
	}
	switch binary.BigEndian.Uint16(frame[12:14]) {
	case eth.TypeECPRI:
		return frame[eth.HeaderLen:]
	case eth.TypeVLAN:
		if len(frame) >= eth.VLANHeaderLen && binary.BigEndian.Uint16(frame[16:18]) == eth.TypeECPRI {
			return frame[eth.VLANHeaderLen:]
		}
	}
	return nil
}

// PeekEAxC extracts the eCPRI eAxC identifier from a raw frame without a
// full decode — the RSS-style peek a NIC performs to spread flows across
// receive queues. Beyond the header walk it reads only the PC_ID field of
// the eCPRI common header. ok is false when the frame is too short or not
// eCPRI; such frames carry no flow identity and may be steered anywhere.
func PeekEAxC(frame []byte) (uint16, bool) {
	h := peekECPRI(frame)
	if len(h) < ecpri.HeaderLen {
		return 0, false
	}
	// PC_ID occupies bytes 4-5 of the 8-byte eCPRI common header.
	return binary.BigEndian.Uint16(h[4:6]), true
}

// PeekShedClass classifies a raw frame for ingress admission, which sheds
// by traffic class when a queue runs out of room: the plane, and for
// U-plane frames whether the payload is PRACH (timing filter index 1),
// the U-plane class shed last. Beyond the header walk it reads only the
// eCPRI message-type byte and the first payload byte holding the O-RAN
// filter index, so it is cheap enough for the admission path. Frames too
// short or not eCPRI are PlaneUnknown; prach is meaningful only for
// PlaneU.
func PeekShedClass(frame []byte) (plane Plane, prach bool) {
	h := peekECPRI(frame)
	if len(h) < ecpri.HeaderLen {
		return PlaneUnknown, false
	}
	switch ecpri.MessageType(h[1]) {
	case ecpri.MsgRTControl:
		return PlaneC, false
	case ecpri.MsgIQData:
		// Byte 0 of the O-RAN application header: dataDirection,
		// payloadVersion, filterIndex (low nibble). PRACH = index 1.
		return PlaneU, len(h) > ecpri.HeaderLen && h[ecpri.HeaderLen]&0x0f == 1
	}
	return PlaneUnknown, false
}

// Key identifies the (symbol, eAxC, direction) a packet belongs to — the
// cache key of RANBooster's A3 action: the DAS middlebox collects all RU
// uplink packets for the same key before merging them.
type Key struct {
	Sym  oran.SymbolRef
	EAxC uint16
	Dir  oran.Direction
}

// KeyOf builds the cache key of a packet; it needs only the timing peek.
func KeyOf(p *Packet) (Key, error) {
	t, err := p.Timing()
	if err != nil {
		return Key{}, err
	}
	return Key{Sym: oran.SymbolOf(t), EAxC: p.Ecpri.PcID.Uint16(), Dir: t.Direction}, nil
}

// String summarizes the packet the way a capture tool would.
func (p *Packet) String() string {
	t, err := p.Timing()
	if err != nil {
		return fmt.Sprintf("%s %s (undecodable timing)", p.Plane(), p.Ecpri.PcID)
	}
	return fmt.Sprintf("%s, Id: %d %s — %s", p.Plane(), p.Ecpri.PcID.RUPort, p.Ecpri.PcID, t)
}

// Clone is Pool.Clone on the heap: the copy is the collector's.
func (p *Packet) Clone() *Packet { return (*Pool)(nil).Clone(p) }

// SetEAxC patches the packet's eCPRI PC_ID in place (frame and view) —
// the antenna-port remapping primitive of the dMIMO middlebox. The
// packet must have been decoded; calling it on a zero Packet panics
// with a diagnosable message instead of an index error.
func (p *Packet) SetEAxC(pc ecpri.PcID) {
	off := int(p.appOff) - 4 // PC_ID sits 4 bytes into the 8-byte eCPRI header
	if off < 0 || off+2 > len(p.Frame) {
		panic("fh: SetEAxC on an undecoded packet")
	}
	p.Frame[off] = byte(pc.Uint16() >> 8)
	p.Frame[off+1] = byte(pc.Uint16())
	p.Ecpri.PcID = pc
}

// Redirect rewrites destination and source MACs in place (action A1).
// vlan < 0 keeps the existing VLAN id.
func (p *Packet) Redirect(dst, src eth.MAC, vlan int) error {
	if err := eth.Rewrite(p.Frame, dst, src, vlan); err != nil {
		return err
	}
	p.Eth.Dst, p.Eth.Src = dst, src
	if vlan >= 0 && p.Eth.HasVLAN {
		p.Eth.VLANID = uint16(vlan)
	}
	return nil
}
