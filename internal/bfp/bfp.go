// Package bfp implements the O-RAN Block Floating Point compression used on
// fronthaul U-plane payloads (O-RAN WG4 CUS-plane §A.1, "BFP").
//
// BFP compresses the 12 IQ samples of a PRB together: a common exponent e is
// chosen so that every I and Q value of the block, shifted right by e, fits
// in the configured mantissa width (iqWidth bits, two's complement). The
// exponent travels in a one-byte udCompParam header ahead of the bit-packed
// mantissas, exactly as the Wireshark capture in Fig. 2 of the paper shows.
//
// The exponent is also the signal RANBooster's PRB-monitoring application
// exploits (Algorithm 1): a PRB whose samples all fit without shifting
// (exponent at the floor) is carrying almost no energy and can be counted
// as unutilized without decompressing anything.
//
// The codec has two levels. CompressPRB/Grid and DecompressPRB/Grid move
// between wire bytes and iq samples a PRB at a time through the
// word-at-a-time kernels in kernels.go: the wire-common widths 9, 14 and 16
// have unrolled specializations that read and write 64-bit words, other
// widths fall back to a generic indexed bit loop. MergeGrid (merge.go) is
// what the middleboxes' A4 action runs: it sums any number of compressed
// sections and re-encodes the sum without ever producing a decoded grid,
// for width 9 in the 16-bit-lane SWAR kernels of lanes.go, byte-identical
// to decompress → add → compress. Destinations are grown once per call,
// never appended to byte by byte, and truncated input is always an error —
// short payloads never decode as silent zero samples.
package bfp

import (
	"errors"
	"fmt"
	"math/bits"

	"ranbooster/internal/iq"
)

// Method identifies a U-plane compression method, as carried in udCompHdr.
type Method uint8

// Compression methods from the O-RAN CUS-plane specification. Only None and
// BlockFloatingPoint are implemented; the others are listed so headers from
// other stacks decode cleanly.
const (
	MethodNone               Method = 0
	MethodBlockFloatingPoint Method = 1
	MethodBlockScaling       Method = 2
	MethodMuLaw              Method = 3
)

// String returns the spec name of the method.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "no compression"
	case MethodBlockFloatingPoint:
		return "Block floating point compression"
	case MethodBlockScaling:
		return "Block scaling"
	case MethodMuLaw:
		return "Mu-law"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Params describes the compression configuration of a U-plane section, the
// contents of the udCompHdr byte: a 4-bit mantissa width and a 4-bit method.
type Params struct {
	IQWidth uint8 // mantissa bits per I or Q value; 1..16, where 0 encodes 16
	Method  Method
}

// Errors returned by the codec.
var (
	ErrWidth     = errors.New("bfp: iqWidth out of range")
	ErrTruncated = errors.New("bfp: truncated payload")
	ErrMethod    = errors.New("bfp: unsupported compression method")
)

// Byte packs the parameters into the wire udCompHdr byte.
func (p Params) Byte() byte {
	return byte(p.IQWidth&0x0f)<<4 | byte(p.Method)&0x0f
}

// ParamsFromByte decodes a udCompHdr byte.
func ParamsFromByte(b byte) Params {
	return Params{IQWidth: b >> 4, Method: Method(b & 0x0f)}
}

// EffectiveWidth maps the 4-bit wire encoding to the real mantissa width
// (a wire value of 0 means 16 bits).
func (p Params) EffectiveWidth() int {
	if p.IQWidth == 0 {
		return 16
	}
	return int(p.IQWidth)
}

// PRBSize returns the encoded size in bytes of one compressed PRB, including
// the udCompParam exponent byte. For the 9-bit width used throughout the
// paper's testbed this is 28 bytes (1 + ceil(12*2*9/8)), versus 48 bytes
// uncompressed.
func (p Params) PRBSize() int {
	w := p.EffectiveWidth()
	if p.Method == MethodNone {
		return iq.SubcarriersPerPRB * 4 // 16-bit I + 16-bit Q, no header
	}
	return 1 + (iq.SubcarriersPerPRB*2*w+7)/8
}

// codecWidth validates the parameters and returns the mantissa width the
// kernels will run at. It is the single gate every codec entry point passes
// through.
func codecWidth(p Params) (int, error) {
	switch p.Method {
	case MethodNone:
		return 16, nil
	case MethodBlockFloatingPoint:
		w := p.EffectiveWidth()
		if w < 2 || w > 16 {
			return 0, ErrWidth
		}
		return w, nil
	default:
		return 0, ErrMethod
	}
}

// grow extends dst by n bytes in a single step, reusing spare capacity when
// there is any. The new bytes are uninitialized from the caller's point of
// view: every caller overwrites them completely before returning.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	//ranvet:allow alloc growth of the caller-owned destination; amortized away once the buffer reaches carrier size
	return append(dst, make([]byte, n)...)
}

// MaxExponent is the largest exponent the 4-bit udCompParam field can carry.
const MaxExponent = 15

// ExponentFor computes the BFP exponent the encoder would choose for the
// PRB under the given mantissa width, without encoding anything. This is
// what a middlebox needs to reason about utilization cheaply.
func ExponentFor(prb *iq.PRB, width int) uint8 {
	if width >= 16 {
		return 0
	}
	max := prb.MaxMagnitude()
	// The smallest e such that max>>e <= 2^(width-1)-1, i.e.
	// e = bitlen(max) - (width-1) clamped to [0, MaxExponent]. Using the
	// magnitude bound 2^(width-1)-1 is conservative by one LSB for exactly
	// -2^(width-1), which keeps the choice branch-free and matches the wire
	// output of the original shift-loop encoder bit for bit.
	e := bits.Len32(uint32(max)) - (width - 1)
	if e < 0 {
		e = 0
	}
	if e > MaxExponent {
		e = MaxExponent
	}
	return uint8(e)
}

// encodePRB encodes one PRB into buf, which must hold exactly p.PRBSize()
// bytes for an already-validated p (see codecWidth). Layout for BFP: 1 byte
// udCompParam (low nibble = exponent) followed by the bit-packed mantissas,
// I then Q per subcarrier, MSB first.
func encodePRB(buf []byte, prb *iq.PRB, p Params, w int) {
	if p.Method == MethodNone {
		pack16(buf, prb)
		return
	}
	if len(buf) < 1 {
		panic("bfp: encodePRB short buffer")
	}
	exp := ExponentFor(prb, w)
	buf[0] = exp & 0x0f
	switch w {
	case 9:
		pack9(buf[1:], prb, exp)
	case 14:
		pack14(buf[1:], prb, exp)
	case 16:
		pack16(buf[1:], prb)
	default:
		packGeneric(buf[1:], prb, w, exp)
	}
}

// decodePRB decodes one PRB from buf, which must hold at least p.PRBSize()
// bytes for an already-validated p, and returns the exponent applied.
func decodePRB(buf []byte, prb *iq.PRB, p Params, w int) uint8 {
	if p.Method == MethodNone {
		unpack16(buf, prb, 0)
		return 0
	}
	if len(buf) < 1 {
		panic("bfp: decodePRB short buffer")
	}
	exp := buf[0] & 0x0f
	switch w {
	case 9:
		unpack9(buf[1:], prb, exp)
	case 14:
		unpack14(buf[1:], prb, exp)
	case 16:
		unpack16(buf[1:], prb, exp)
	default:
		unpackGeneric(buf[1:], prb, w, exp)
	}
	return exp
}

// CompressPRB encodes one PRB into dst (appending) and returns the extended
// slice. The destination is grown once; with spare capacity present the
// call does not allocate.
//
//ranvet:hotpath
func CompressPRB(dst []byte, prb *iq.PRB, p Params) ([]byte, error) {
	w, err := codecWidth(p)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = grow(dst, p.PRBSize())
	encodePRB(dst[base:], prb, p, w)
	return dst, nil
}

// DecompressPRB decodes one compressed PRB from src into prb and returns
// the number of bytes consumed plus the exponent that was applied. A src
// shorter than the encoded PRB size is ErrTruncated — never a silent
// zero-filled decode.
//
//ranvet:hotpath
func DecompressPRB(src []byte, prb *iq.PRB, p Params) (n int, exp uint8, err error) {
	w, err := codecWidth(p)
	if err != nil {
		return 0, 0, err
	}
	size := p.PRBSize()
	if len(src) < size {
		return 0, 0, ErrTruncated
	}
	exp = decodePRB(src, prb, p, w)
	return size, exp, nil
}

// PeekExponent returns the BFP exponent of the compressed PRB at the start
// of src without decoding any mantissas — the O(1) inspection at the heart
// of the PRB-monitoring middlebox.
//
//ranvet:hotpath
func PeekExponent(src []byte) (uint8, error) {
	if len(src) < 1 {
		return 0, ErrTruncated
	}
	return src[0] & 0x0f, nil
}

// AppendExponents appends the udCompParam exponent of every complete
// compressed PRB in src to dst — the batched form of PeekExponent. It reads
// only the header byte of each PRB, skipping the mantissas entirely, and
// grows dst once. A trailing partial PRB is ignored, matching the per-PRB
// scan loops it replaces. Only MethodBlockFloatingPoint payloads carry
// exponents; other methods return ErrMethod.
//
//ranvet:hotpath
func AppendExponents(dst []uint8, src []byte, p Params) ([]uint8, error) {
	if p.Method != MethodBlockFloatingPoint {
		return dst, ErrMethod
	}
	w := p.EffectiveWidth()
	if w < 2 || w > 16 {
		return dst, ErrWidth
	}
	size := p.PRBSize()
	n := len(src) / size
	base := len(dst)
	dst = grow(dst, n)
	for i := 0; i < n; i++ {
		dst[base+i] = src[i*size] & 0x0f
	}
	return dst, nil
}

// CompressGrid encodes a run of PRBs, appending to dst. The destination is
// grown once for the whole grid, then each PRB is encoded in place at its
// stride.
//
//ranvet:hotpath
func CompressGrid(dst []byte, g iq.Grid, p Params) ([]byte, error) {
	w, err := codecWidth(p)
	if err != nil {
		return dst, err
	}
	size := p.PRBSize()
	base := len(dst)
	dst = grow(dst, size*len(g))
	for i := range g {
		encodePRB(dst[base+i*size:base+(i+1)*size], &g[i], p, w)
	}
	return dst, nil
}

// DecompressGrid decodes len(g) PRBs from src into g, returning bytes
// consumed. Decoding stops at the first truncated PRB with ErrTruncated and
// the count of bytes consumed so far.
//
//ranvet:hotpath
func DecompressGrid(src []byte, g iq.Grid, p Params) (int, error) {
	w, err := codecWidth(p)
	if err != nil {
		return 0, err
	}
	size := p.PRBSize()
	off := 0
	for i := range g {
		if len(src)-off < size {
			return off, ErrTruncated
		}
		decodePRB(src[off:], &g[i], p, w)
		off += size
	}
	return off, nil
}
