package fh

import (
	"bytes"
	"strings"
	"testing"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/oran"
)

var (
	duMAC = eth.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	ruMAC = eth.MAC{0x6c, 0xad, 0xad, 0x00, 0x0b, 0x6c}
)

func bfp9() bfp.Params { return bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint} }

func sampleUPlane() *oran.UPlaneMsg {
	return &oran.UPlaneMsg{
		Timing: oran.Timing{Direction: oran.Downlink, PayloadVersion: 1, FrameID: 46, SubframeID: 9, SlotID: 1, SymbolID: 13},
		Sections: []oran.USection{{
			SectionID: 0, NumPRB: 4, Comp: bfp9(), Payload: make([]byte, 4*28),
		}},
	}
}

func sampleCPlane() *oran.CPlaneMsg {
	return &oran.CPlaneMsg{
		Timing:      oran.Timing{Direction: oran.Downlink, FrameID: 46, SubframeID: 9, SlotID: 1, SymbolID: 0},
		SectionType: oran.SectionType1,
		Comp:        bfp9(),
		Sections:    []oran.CSection{{NumPRB: 106, ReMask: 0xfff, NumSymbol: 14}},
	}
}

func TestBuilderUPlaneDecode(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	pc := ecpri.PcID{RUPort: 3}
	frame := b.UPlane(pc, sampleUPlane())

	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if p.Plane() != PlaneU {
		t.Fatalf("plane = %v", p.Plane())
	}
	if p.Eth.Dst != ruMAC || p.Eth.Src != duMAC || p.Eth.VLANID != 6 {
		t.Fatalf("eth = %+v", p.Eth)
	}
	if p.EAxC() != pc {
		t.Fatalf("eAxC = %+v", p.EAxC())
	}
	tm, err := p.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm.FrameID != 46 || tm.SymbolID != 13 {
		t.Fatalf("timing = %+v", tm)
	}
	var msg oran.UPlaneMsg
	if err := p.UPlane(&msg, 106); err != nil {
		t.Fatal(err)
	}
	if msg.Sections[0].NumPRB != 4 {
		t.Fatalf("section = %+v", msg.Sections[0])
	}
}

func TestBuilderCPlaneDecode(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, -1) // untagged
	frame := b.CPlane(ecpri.PcID{RUPort: 1}, sampleCPlane())
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if p.Plane() != PlaneC {
		t.Fatalf("plane = %v", p.Plane())
	}
	if p.Eth.HasVLAN {
		t.Fatal("unexpected VLAN")
	}
	var msg oran.CPlaneMsg
	if err := p.CPlane(&msg, 106); err != nil {
		t.Fatal(err)
	}
	if msg.Sections[0].NumPRB != 106 {
		t.Fatalf("numPRB = %d", msg.Sections[0].NumPRB)
	}
	// Wrong-plane accessors must refuse.
	var u oran.UPlaneMsg
	if err := p.UPlane(&u, 106); err != ErrPlane {
		t.Fatalf("UPlane on C-plane: %v", err)
	}
}

func TestBuilderSequencesPerEAxC(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	pc0, pc1 := ecpri.PcID{RUPort: 0}, ecpri.PcID{RUPort: 1}
	var p Packet
	for want := 0; want < 3; want++ {
		frame := b.UPlane(pc0, sampleUPlane())
		if err := p.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if int(p.Ecpri.SeqID) != want {
			t.Fatalf("pc0 seq = %d, want %d", p.Ecpri.SeqID, want)
		}
	}
	frame := b.UPlane(pc1, sampleUPlane())
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if p.Ecpri.SeqID != 0 {
		t.Fatalf("pc1 seq = %d, want 0 (independent counter)", p.Ecpri.SeqID)
	}
}

func TestKeyOf(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	pc := ecpri.PcID{RUPort: 2}
	var p Packet
	if err := p.Decode(b.UPlane(pc, sampleUPlane())); err != nil {
		t.Fatal(err)
	}
	k, err := KeyOf(&p)
	if err != nil {
		t.Fatal(err)
	}
	want := Key{
		Sym:  oran.SymbolRef{Slot: oran.Slot{Frame: 46, Subframe: 9, Slot: 1}, Symbol: 13},
		EAxC: pc.Uint16(),
		Dir:  oran.Downlink,
	}
	if k != want {
		t.Fatalf("key = %+v, want %+v", k, want)
	}
}

func TestClone(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	var p Packet
	if err := p.Decode(b.UPlane(ecpri.PcID{}, sampleUPlane())); err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	if !bytes.Equal(q.Frame, p.Frame) {
		t.Fatal("clone bytes differ")
	}
	q.Frame[0] ^= 0xff
	if bytes.Equal(q.Frame, p.Frame) {
		t.Fatal("clone aliases original")
	}
}

func TestRedirect(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	var p Packet
	if err := p.Decode(b.UPlane(ecpri.PcID{}, sampleUPlane())); err != nil {
		t.Fatal(err)
	}
	other := eth.MAC{9, 9, 9, 9, 9, 9}
	if err := p.Redirect(other, duMAC, 42); err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.Decode(p.Frame); err != nil {
		t.Fatal(err)
	}
	if q.Eth.Dst != other || q.Eth.VLANID != 42 {
		t.Fatalf("redirect not on wire: %+v", q.Eth)
	}
	if p.Eth.Dst != other || p.Eth.VLANID != 42 {
		t.Fatalf("redirect not in view: %+v", p.Eth)
	}
}

func TestRebuildPreservesAddressingAndSizes(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	msg := sampleUPlane()
	var p Packet
	if err := p.Decode(b.UPlane(ecpri.PcID{RUPort: 1}, msg)); err != nil {
		t.Fatal(err)
	}
	// Mutate: grow the payload to 8 PRBs.
	var decoded oran.UPlaneMsg
	if err := p.UPlane(&decoded, 106); err != nil {
		t.Fatal(err)
	}
	decoded.Sections[0].NumPRB = 8
	decoded.Sections[0].Payload = make([]byte, 8*28)
	q := Rebuild(&p, func(buf []byte) []byte { return decoded.AppendTo(buf) })
	if q.Eth != p.Eth || q.Ecpri.PcID != p.Ecpri.PcID || q.Ecpri.SeqID != p.Ecpri.SeqID {
		t.Fatalf("addressing changed: %+v vs %+v", q.Ecpri, p.Ecpri)
	}
	var out oran.UPlaneMsg
	if err := q.UPlane(&out, 106); err != nil {
		t.Fatal(err)
	}
	if out.Sections[0].NumPRB != 8 || len(out.Sections[0].Payload) != 8*28 {
		t.Fatalf("mutation lost: %+v", out.Sections[0])
	}
	if int(q.Ecpri.PayloadSize) != out.EncodedLen()+4 {
		t.Fatalf("payload size = %d, want %d", q.Ecpri.PayloadSize, out.EncodedLen()+4)
	}
}

func TestDecodeRejectsNonECPRI(t *testing.T) {
	h := eth.Header{Dst: ruMAC, Src: duMAC, EtherType: 0x0800}
	frame := h.AppendTo(nil)
	frame = append(frame, make([]byte, 20)...)
	var p Packet
	if err := p.Decode(frame); err != ErrNotECPRI {
		t.Fatalf("err = %v", err)
	}
}

func TestPlaneString(t *testing.T) {
	if PlaneC.String() != "C-Plane" || PlaneU.String() != "U-Plane" || PlaneUnknown.String() != "Unknown" {
		t.Fatal("plane names")
	}
}

func TestPacketString(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	var p Packet
	if err := p.Decode(b.UPlane(ecpri.PcID{RUPort: 3}, sampleUPlane())); err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkDecodePacket(b *testing.B) {
	bd := NewBuilder(duMAC, ruMAC, 6)
	frame := bd.UPlane(ecpri.PcID{}, sampleUPlane())
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeekEAxC(t *testing.T) {
	pc := ecpri.PcID{DUPort: 2, BandSector: 1, CC: 3, RUPort: 5}
	tagged := NewBuilder(duMAC, ruMAC, 6).UPlane(pc, sampleUPlane())
	untagged := NewBuilder(duMAC, ruMAC, -1).UPlane(pc, sampleUPlane())
	for name, frame := range map[string][]byte{"vlan": tagged, "untagged": untagged} {
		got, ok := PeekEAxC(frame)
		if !ok {
			t.Fatalf("%s: PeekEAxC failed", name)
		}
		if got != pc.Uint16() {
			t.Fatalf("%s: PeekEAxC = %#04x, want %#04x", name, got, pc.Uint16())
		}
		// The peek must agree with the full decode.
		var p Packet
		if err := p.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if p.EAxC().Uint16() != got {
			t.Fatalf("%s: peek %#04x disagrees with decode %#04x", name, got, p.EAxC().Uint16())
		}
	}
	if _, ok := PeekEAxC([]byte{1, 2, 3}); ok {
		t.Fatal("short frame peeked")
	}
	notEcpri := append([]byte{}, untagged...)
	notEcpri[12], notEcpri[13] = 0x08, 0x00 // IPv4 ethertype
	if _, ok := PeekEAxC(notEcpri); ok {
		t.Fatal("non-eCPRI frame peeked")
	}
	if _, ok := PeekEAxC(tagged[:16]); ok {
		t.Fatal("truncated VLAN frame peeked")
	}
}

// TestPeekShedClass: ingress admission sheds by this classification, so it
// must tell PRACH from U-plane data from C-plane with and without an
// 802.1Q tag, and claim nothing about frames it cannot read.
func TestPeekShedClass(t *testing.T) {
	pc := ecpri.PcID{RUPort: 5}
	prach := sampleUPlane()
	prach.Timing.Direction, prach.Timing.FilterIndex = oran.Uplink, 1
	// A C-plane message for the PRACH filter is still C-plane.
	cPrach := sampleCPlane()
	cPrach.Timing.FilterIndex = 1
	for _, vlan := range []int{-1, 6} {
		b := NewBuilder(duMAC, ruMAC, vlan)
		for _, c := range []struct {
			name  string
			frame []byte
			plane Plane
			prach bool
		}{
			{"PRACH", b.UPlane(pc, prach), PlaneU, true},
			{"data", b.UPlane(pc, sampleUPlane()), PlaneU, false},
			{"C-plane", b.CPlane(pc, sampleCPlane()), PlaneC, false},
			{"C-plane for PRACH", b.CPlane(pc, cPrach), PlaneC, false},
		} {
			if plane, isPrach := PeekShedClass(c.frame); plane != c.plane || isPrach != c.prach {
				t.Errorf("vlan %d, %s: PeekShedClass = (%v, %v), want (%v, %v)", vlan, c.name, plane, isPrach, c.plane, c.prach)
			}
		}
		// Cut inside the eCPRI header there is no class to read; cut right
		// after it the plane is known and there is no filter index.
		frame := b.UPlane(pc, prach)
		hdr := len(frame) - prach.EncodedLen()
		if plane, isPrach := PeekShedClass(frame[:hdr-1]); plane != PlaneUnknown || isPrach {
			t.Errorf("vlan %d: truncated eCPRI header classified as (%v, %v)", vlan, plane, isPrach)
		}
		if plane, isPrach := PeekShedClass(frame[:hdr]); plane != PlaneU || isPrach {
			t.Errorf("vlan %d: frame without payload classified as (%v, %v), want (U-Plane, false)", vlan, plane, isPrach)
		}
	}
	notEcpri := NewBuilder(duMAC, ruMAC, -1).UPlane(pc, prach)
	notEcpri[12], notEcpri[13] = 0x08, 0x00 // IPv4 ethertype
	if plane, isPrach := PeekShedClass(notEcpri); plane != PlaneUnknown || isPrach {
		t.Errorf("non-eCPRI frame classified as (%v, %v)", plane, isPrach)
	}
}

// SetEAxC on a packet that was never decoded used to panic with a bare
// negative-index runtime error deep in the frame write; it must fail with
// a message that names the misuse (ranvet: wirebounds hardening).
func TestSetEAxCUndecodedPanicsClearly(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetEAxC on an undecoded packet did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "undecoded") {
			t.Fatalf("panic = %v, want message naming the undecoded packet", r)
		}
	}()
	var p Packet
	p.SetEAxC(ecpri.PcID{RUPort: 1})
}

// SetEAxC on a decoded packet keeps working and patches frame and view.
func TestSetEAxCDecoded(t *testing.T) {
	b := NewBuilder(duMAC, ruMAC, 6)
	var p Packet
	if err := p.Decode(b.UPlane(ecpri.PcID{RUPort: 3}, sampleUPlane())); err != nil {
		t.Fatal(err)
	}
	p.SetEAxC(ecpri.PcID{RUPort: 9})
	var q Packet
	if err := q.Decode(p.Frame); err != nil {
		t.Fatal(err)
	}
	if q.Ecpri.PcID.RUPort != 9 {
		t.Fatalf("RUPort = %d, want 9", q.Ecpri.PcID.RUPort)
	}
}
