// SWAR lane kernels for the width-9 one-pass merge (merge.go). A PRB lives
// in six uint64 words of four 16-bit two's-complement lanes — per group of
// four samples one I word and one Q word, sample 4g in the top lane — so
// decode, add, exponent choice and encode each touch four values per ALU
// operation instead of one.
//
// The layout falls out of the wire format: a BFP9 group is 9 bytes holding
// eight 9-bit fields I0 Q0 I1 Q1 I2 Q2 I3 Q3, MSB first. The I fields start
// at group bits 63, 45, 27, 9 and the Q fields at 54, 36, 18, 0: the same
// 18-bit comb, one bit-shifted 64-bit load apart. gather9 closes the comb's
// 18-bit pitch to the 16-bit lane pitch; scatter9 opens it again.
//
// Everything here is plain uint64 arithmetic on 64-bit constants: no
// dependence on the width of int or on host byte order (loads and stores
// go through encoding/binary).

package bfp

import (
	"encoding/binary"
	"math/bits"
)

// prbBytes9 is the encoded size of one width-9 BFP PRB: udCompParam plus
// the mantissas.
const prbBytes9 = 1 + mantBytes9

// Lane constants: one 16-bit pattern replicated across the four lanes.
const (
	laneOne   uint64 = 0x0001000100010001
	laneSign  uint64 = 0x8000800080008000
	laneMant9 uint64 = 0x01ff01ff01ff01ff // a 9-bit mantissa at the bottom of each lane
	laneNeg9  uint64 = 0x0100010001000100 // its sign bit

	f9 uint64 = 0x1ff // one 9-bit field; the comb masks of gather9/scatter9 are built from it
)

// prbLanes is one PRB in lane form: word 2g holds the I components of
// samples 4g..4g+3, word 2g+1 their Q components.
type prbLanes [6]uint64

// gather9 moves the four 9-bit fields at bits 54, 36, 18 and 0 of x to the
// bottom of the lanes (bits 48, 32, 16, 0) in two steps — the upper pair
// down by 4, then every other field down by 2 — and drops all other bits.
func gather9(x uint64) uint64 {
	x = x>>4&(f9<<50|f9<<32) | x&(f9<<18|f9)
	return x>>2&(f9<<48|f9<<16) | x&(f9<<32|f9)
}

// scatter9 is gather9's inverse: lane mantissas back onto the 18-bit comb.
// Bits above each lane's low nine must be clear.
func scatter9(x uint64) uint64 {
	x = x&(f9<<48|f9<<16)<<2 | x&(f9<<32|f9)
	return x&(f9<<50|f9<<32)<<4 | x&(f9<<18|f9)
}

// decode9 turns gathered mantissas into samples: sign-extend the 9-bit
// fields to 16 bits, then shift every lane left by exp, dropping what
// leaves the lane — bit for bit sext16's `int16(v<<7) >> 7 << exp`, hostile
// exponents included. keep is the per-lane mask of bits that survive the
// shift (shlKeep).
func decode9(x uint64, exp uint, keep uint64) uint64 {
	s := x & laneNeg9
	x |= s<<8 - s // 0xff00 over every negative lane
	return x << exp & keep
}

// shlKeep returns the lanewise mask 0xffff<<exp&0xffff: laneOne<<exp-laneOne
// sets the low exp bits of every lane (no lane borrows, 2^exp ≥ 1).
func shlKeep(exp uint) uint64 {
	return ^(laneOne<<exp - laneOne)
}

// addLanes is the lanewise wrapping sum of a and b plus the sign bits of
// the lanes whose true sum left the int16 range (both operands of one
// sign, the sum of the other). addSat9 ORs ovf across a PRB and repairs
// with saturate only when it is nonzero.
func addLanes(a, b uint64) (sum, ovf uint64) {
	d := a ^ b
	sum = (a&^laneSign + b&^laneSign) ^ d&laneSign
	ovf = (a ^ sum) &^ d & laneSign
	return sum, ovf
}

// saturate replaces the overflowed lanes of sum (as from addLanes) by the
// int16 limit on the operands' side. An overflowed sum has the wrong sign,
// so the limit is 0x7fff where sum reads negative, 0x8000 where it does not.
func saturate(sum, ovf uint64) uint64 {
	m := ovf >> 15
	m = m<<16 - m // 0xffff over every overflowed lane
	limit := ^laneSign + ^sum>>15&laneOne
	return sum&^m | limit&m
}

// absLanes is the lanewise |x| as an unsigned 16-bit value (32768 for
// -32768). It is the true magnitude, not ^x: ExponentFor sizes the
// exponent on |x|, which is one bit longer than ^x exactly at -2^n.
func absLanes(x uint64) uint64 {
	s := x >> 15 & laneOne
	m := s<<16 - s // 0xffff over every negative lane
	return (x ^ m) + s
}

// load9 decodes one width-9 PRB (28 bytes: exponent, 27 mantissa bytes)
// into lane form. Lane for lane it equals unpack9, hostile exponents
// included.
func load9(p *prbLanes, src []byte) {
	if len(src) < prbBytes9 {
		panic("bfp: load9 short buffer")
	}
	exp := uint(src[0] & 0x0f)
	keep := shlKeep(exp)
	for g := 0; g < 3; g++ {
		p[2*g] = decode9(gather9(binary.BigEndian.Uint64(src[1+9*g:])>>1), exp, keep)
		p[2*g+1] = decode9(gather9(binary.BigEndian.Uint64(src[2+9*g:])), exp, keep)
	}
}

// addSat9 decodes one width-9 PRB as load9 does and accumulates it into
// acc with int16 saturation, lane for lane PRB.AddSat, without
// materializing the decoded block. This is the general accumulate: any
// exponent, any operands.
func addSat9(acc *prbLanes, src []byte) {
	if len(src) < prbBytes9 {
		panic("bfp: addSat9 short buffer")
	}
	exp := uint(src[0] & 0x0f)
	keep := shlKeep(exp)
	var ovf prbLanes
	var any uint64
	for g := 0; g < 3; g++ {
		i := decode9(gather9(binary.BigEndian.Uint64(src[1+9*g:])>>1), exp, keep)
		q := decode9(gather9(binary.BigEndian.Uint64(src[2+9*g:])), exp, keep)
		acc[2*g], ovf[2*g] = addLanes(acc[2*g], i)
		acc[2*g+1], ovf[2*g+1] = addLanes(acc[2*g+1], q)
		any |= ovf[2*g] | ovf[2*g+1]
	}
	if any != 0 {
		for i := range acc {
			acc[i] = saturate(acc[i], ovf[i])
		}
	}
}

// addOffset9 adds one width-9 PRB into acc in offset form: each lane gains
// (m+256)<<exp for its mantissa m — never negative, so a whole-word add is
// a lanewise add as long as no lane total reaches 2^16, and neither sign
// extension nor overflow detection is needed. mergePRB9 uses it when the
// exponents rule saturation out, and takes the offsets off afterwards.
func addOffset9(acc *prbLanes, src []byte) {
	if len(src) < prbBytes9 {
		panic("bfp: addOffset9 short buffer")
	}
	exp := uint(src[0] & 0x0f)
	for g := 0; g < 3; g++ {
		acc[2*g] += (gather9(binary.BigEndian.Uint64(src[1+9*g:])>>1) ^ laneNeg9) << exp
		acc[2*g+1] += (gather9(binary.BigEndian.Uint64(src[2+9*g:])) ^ laneNeg9) << exp
	}
}

// store9 encodes a lane-form PRB as one width-9 BFP PRB: the exponent
// ExponentFor would choose, then the mantissas pack9 would write.
func store9(dst []byte, p *prbLanes) {
	if len(dst) < prbBytes9 {
		panic("bfp: store9 short buffer")
	}
	// bits.Len of the OR of all magnitudes is bits.Len of the largest.
	var mag uint64
	for _, w := range p {
		mag |= absLanes(w)
	}
	mag |= mag >> 32
	mag |= mag >> 16
	exp := bits.Len16(uint16(mag)) - (9 - 1)
	if exp < 0 {
		exp = 0
	}
	dst[0] = byte(exp)
	e := uint(exp)
	for g := 0; g < 3; g++ {
		// A plain word shift serves as the lanewise >>e: mantissa bit i is
		// lane bit e+i, inside the lane for e ≤ 7.
		i := p[2*g] >> e & laneMant9
		q := p[2*g+1] >> e & laneMant9
		if exp == 8 {
			// A -32768 lane forced exponent 8: bit 8 would be the next
			// lane's bit 0. Take each lane's own sign instead, as the
			// arithmetic shift in mant does.
			i = i&^laneNeg9 | p[2*g]>>7&laneNeg9
			q = q&^laneNeg9 | p[2*g+1]>>7&laneNeg9
		}
		i, q = scatter9(i), scatter9(q)
		binary.BigEndian.PutUint64(dst[1+9*g:], i<<1|q>>8)
		dst[9+9*g] = byte(q)
	}
}

// mergePRB9 sums the width-9 PRB at byte offset off of every source, in
// order and with int16 saturation, and encodes the sum into dst.
func mergePRB9(dst []byte, srcs []Section, off int) {
	var acc prbLanes
	if !sumOffset9(&acc, srcs, off) {
		src := srcs[0].Payload
		if len(src) < off+prbBytes9 {
			panic("bfp: mergePRB9 short source")
		}
		load9(&acc, src[off:off+prbBytes9])
		for j := 1; j < len(srcs); j++ {
			src := srcs[j].Payload
			addSat9(&acc, src[off:off+prbBytes9])
		}
	}
	store9(dst, &acc)
}

// sumOffset9 is mergePRB9's shortcut for the PRBs whose exponents rule
// saturation out, which is most of a real uplink. A 9-bit mantissa under
// exponent e decodes to within ±256<<e, so the sum of 256<<e over the
// sources bounds every partial sum; when it is at most 2^15 none can leave
// int16, nothing saturates, and the exact sum is the answer. The sources are
// then added in offset form (addOffset9). The offsets total bound: starting
// every lane at 2^15-bound keeps it in [0, 2^16) throughout and leaves it
// 2^15 above the signed sum, which flipping the top bit turns into two's
// complement. It reports false, acc untouched, when the bound does not hold
// — and for a lone source, which has nothing to add and is quickest decoded
// straight into place.
func sumOffset9(acc *prbLanes, srcs []Section, off int) bool {
	if len(srcs) < 2 {
		return false
	}
	var bound uint64
	for j := range srcs {
		src := srcs[j].Payload
		if len(src) < off+prbBytes9 {
			panic("bfp: sumOffset9 short source")
		}
		bound += 256 << (src[off] & 0x0f)
	}
	if bound > 1<<15 {
		return false
	}
	start := (1<<15 - bound) * laneOne
	for w := range acc {
		acc[w] = start
	}
	for j := range srcs {
		src := srcs[j].Payload
		addOffset9(acc, src[off:off+prbBytes9])
	}
	for w := range acc {
		acc[w] ^= laneSign
	}
	return true
}
