package fh

import (
	"fmt"

	"ranbooster/internal/ecpri"
)

// Frame buffers come in two fixed size classes, the mbuf idiom: a small one
// that holds any C-plane message or few-PRB U-plane frame, and a jumbo one
// that holds a full-carrier U-plane frame (273 PRBs of BFP-9 are ~7.7 KB).
// A frame larger than a jumbo buffer is not pooled.
const (
	smallBuf = 512
	jumboBuf = 9216
)

// Free-list bounds. A list that is full drops what is released to it to the
// collector, one that is empty falls back to the heap, so the worst case a
// Pool keeps alive is poolPackets packets (~100 B each) plus poolBufs
// buffers of either class: 256×~100 B + 64×512 B + 64×9216 B ≈ 650 KB.
const (
	poolPackets = 256
	poolBufs    = 64
)

// Buffer classes of Packet.class.
const (
	classHeap uint8 = iota
	classSmall
	classJumbo
)

// Pool recycles Packets and frame buffers for one datapath worker: a
// bounded free list of each, no locks — a Pool belongs to one goroutine at
// a time. What Clone, Rebuild and Get hand out is the caller's until it is
// given back with Put (or PutFrame for a bare buffer); giving back is
// optional — whatever is never released is simply the collector's, as is
// everything a nil *Pool hands out. The engine's release points are in
// DESIGN.md §6.10.
//
// Under the race detector releases are checked: a released buffer is filled
// with poisonByte, so a reader that kept it sees garbage rather than
// plausible IQ, and a second release of the same packet or buffer panics.
type Pool struct {
	pkts         []*Packet
	small, jumbo [][]byte
}

// NewPool returns an empty pool: the free lists fill as things are released.
func NewPool() *Pool {
	return &Pool{
		pkts:  make([]*Packet, 0, poolPackets),
		small: make([][]byte, 0, poolBufs),
		jumbo: make([][]byte, 0, poolBufs),
	}
}

// poisonByte fills released buffers in race builds.
const poisonByte = 0xdb

// Get returns a zero Packet.
func (pl *Pool) Get() *Packet {
	if pl != nil {
		if n := len(pl.pkts); n > 0 {
			p := pl.pkts[n-1]
			pl.pkts = pl.pkts[:n-1]
			p.free = false
			p.Ecpri.PcID = ecpri.PcID{}
			return p
		}
	}
	//ranvet:allow alloc heap fallback of the packet pool: an empty free list (or no pool) makes a packet the collector owns until it is released
	return &Packet{}
}

// buf returns an empty buffer with room for n bytes and its class.
func (pl *Pool) buf(n int) ([]byte, uint8) {
	size, class := n, classHeap
	if pl != nil && n <= jumboBuf {
		list := &pl.jumbo
		size, class = jumboBuf, classJumbo
		if n <= smallBuf {
			list = &pl.small
			size, class = smallBuf, classSmall
		}
		if k := len(*list); k > 0 {
			b := (*list)[k-1]
			(*list)[k-1] = nil
			*list = (*list)[:k-1]
			if poison {
				for i := 0; i < len(b); i++ {
					if b[i] != poisonByte {
						panic("fh: frame buffer written to after its release")
					}
				}
			}
			return b[:0], class
		}
	}
	//ranvet:allow alloc heap fallback of the frame pool: an empty free list makes a class-sized buffer that joins the pool on release; no pool or an over-jumbo frame makes an exact one the collector owns
	return make([]byte, 0, size), class
}

// Put releases p and, if its frame is a pool buffer, the buffer with it.
// p and everything that aliases its frame must not be used afterwards. A
// second Put of the same packet is ignored (it panics in race builds).
func (pl *Pool) Put(p *Packet) {
	if pl == nil {
		return
	}
	if p.free {
		if poison {
			panic(fmt.Sprintf("fh: packet of eAxC %s released twice", p.Ecpri.PcID))
		}
		return
	}
	if p.class != classHeap {
		pl.PutFrame(p.Frame)
	}
	// The eAxC survives the wipe only to name the packet in the
	// double-release panic; Get clears it.
	*p = Packet{free: true, Ecpri: ecpri.Header{PcID: p.Ecpri.PcID}}
	if len(pl.pkts) < cap(pl.pkts) {
		pl.pkts = append(pl.pkts, p)
	}
}

// PutFrame releases a bare pool buffer: the frame of a Pooled packet that
// went its own way (see Packet.Disown). A frame that is not class-sized is
// not a pool buffer and is left alone.
func (pl *Pool) PutFrame(frame []byte) {
	if pl == nil {
		return
	}
	n := cap(frame)
	if len(frame) < n {
		frame = frame[:n]
	}
	switch n {
	case smallBuf:
		pl.small = shelve(pl.small, frame)
	case jumboBuf:
		pl.jumbo = shelve(pl.jumbo, frame)
	}
}

// shelve puts a released buffer on a free list that has room for it.
func shelve(list [][]byte, buf []byte) [][]byte {
	if poison {
		for i := 0; i < len(buf); i++ {
			buf[i] = poisonByte
		}
		for _, b := range list {
			if len(b) > 0 && &b[0] == &buf[0] {
				panic("fh: frame buffer released twice")
			}
		}
	}
	if len(list) < cap(list) {
		list = append(list, buf)
	}
	return list
}

// Clone deep-copies the packet (frame bytes included) — the A2 replication
// primitive; the clone can be rewritten and re-addressed independently of
// the original.
func (pl *Pool) Clone(p *Packet) *Packet {
	buf, class := pl.buf(len(p.Frame))
	q := pl.Get()
	if err := q.Decode(p.AppendTo(buf)); err != nil {
		// The source packet decoded; a byte-identical copy must too.
		panic("fh: clone of decodable packet failed: " + err.Error())
	}
	q.class = class
	return q
}

// Rebuild re-encodes a mutated O-RAN message into packet p, preserving p's
// Ethernet/eCPRI addressing and sequence fields but refreshing the payload
// and size. It returns a packet backed by a buffer of its own; p is left
// untouched. This is the re-serialization half of action A4. encode
// appends the message to the slice it is given and returns the result
// (oran's AppendTo methods).
func (pl *Pool) Rebuild(p *Packet, encode func(b []byte) []byte) *Packet {
	// The new frame is as long as its message, which the source frame does
	// not bound (a mux outgrows every one of its sources), so a pooled
	// rebuild takes the class any frame fits; on the heap the source's
	// length is the guess. A message that outgrows either makes append
	// move to a larger array.
	n := len(p.Frame)
	if pl != nil {
		n = max(n, jumboBuf)
	}
	buf, class := pl.buf(n)
	out := p.Eth.AppendTo(buf)
	start := len(out)
	out = p.Ecpri.AppendTo(out)
	appStart := len(out)
	out = encode(out)
	if class != classHeap && cap(out) != cap(buf) {
		// Outgrown (append moved to a larger array): the pool buffer goes
		// back unused and the packet adopts the grown one, which is the
		// collector's.
		pl.PutFrame(buf)
		class = classHeap
	}
	_ = ecpri.SetPayloadSize(out, start, len(out)-appStart)
	q := pl.Get()
	if err := q.Decode(out); err != nil {
		panic("fh: rebuild produced undecodable frame: " + err.Error())
	}
	q.class = class
	return q
}

// AppendTo appends the packet's wire bytes to b.
func (p *Packet) AppendTo(b []byte) []byte { return append(b, p.Frame...) }

// Pooled reports whether the packet's frame is a pool buffer, to be given
// back with Put or PutFrame.
func (p *Packet) Pooled() bool { return p.class != classHeap }

// Disown cuts the packet loose from its frame buffer: a later Put releases
// only the Packet. The owner calls it once the buffer has someone else to
// release it (PutFrame) or must outlive the packet.
func (p *Packet) Disown() { p.class = classHeap }
