package fh

import (
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/oran"
)

// Builder constructs complete fronthaul frames for one DU↔RU association:
// it holds the Ethernet addressing and keeps per-eAxC sequence counters,
// exactly the state a real DU or RU fronthaul driver maintains.
type Builder struct {
	Src, Dst eth.MAC
	// VLANID tags frames when >= 0 (the testbed uses VLAN-separated
	// fronthaul segments, like the Fig. 2 capture's VLAN 6).
	VLANID   int
	Priority uint8

	seq map[uint16]uint8
}

// NewBuilder returns a Builder for the given addressing. vlanID < 0 emits
// untagged frames.
func NewBuilder(src, dst eth.MAC, vlanID int) *Builder {
	return &Builder{Src: src, Dst: dst, VLANID: vlanID, seq: make(map[uint16]uint8)}
}

func (b *Builder) header(pc ecpri.PcID, typ ecpri.MessageType, appLen int) (eth.Header, ecpri.Header) {
	eh := eth.Header{Dst: b.Dst, Src: b.Src, EtherType: eth.TypeECPRI}
	if b.VLANID >= 0 {
		eh.HasVLAN = true
		eh.VLANID = uint16(b.VLANID)
		eh.Priority = b.Priority
	}
	key := pc.Uint16()
	seq := b.seq[key]
	b.seq[key] = seq + 1
	ch := ecpri.Header{
		Version:     1,
		Type:        typ,
		PayloadSize: uint16(appLen + 4),
		PcID:        pc,
		SeqID:       seq,
		EBit:        true,
	}
	return eh, ch
}

// UPlane builds a complete U-plane frame for the eAxC.
func (b *Builder) UPlane(pc ecpri.PcID, msg *oran.UPlaneMsg) []byte {
	eh, ch := b.header(pc, ecpri.MsgIQData, msg.EncodedLen())
	buf := make([]byte, 0, eh.Len()+ecpri.HeaderLen+msg.EncodedLen())
	buf = eh.AppendTo(buf)
	buf = ch.AppendTo(buf)
	return msg.AppendTo(buf)
}

// CPlane builds a complete C-plane frame for the eAxC.
func (b *Builder) CPlane(pc ecpri.PcID, msg *oran.CPlaneMsg) []byte {
	eh, ch := b.header(pc, ecpri.MsgRTControl, msg.EncodedLen())
	buf := make([]byte, 0, eh.Len()+ecpri.HeaderLen+msg.EncodedLen())
	buf = eh.AppendTo(buf)
	buf = ch.AppendTo(buf)
	return msg.AppendTo(buf)
}

// Rebuild is Pool.Rebuild on the heap: the new frame is the collector's.
func Rebuild(p *Packet, encode func(b []byte) []byte) *Packet {
	return (*Pool)(nil).Rebuild(p, encode)
}
