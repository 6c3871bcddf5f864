package bfp

import (
	"bytes"
	"testing"

	"ranbooster/internal/iq"
)

// FuzzBFPDecode feeds arbitrary payload bytes and an arbitrary udCompHdr
// to the decompressor. Whatever the bytes claim, the codec must either
// return an error or decode within bounds — and anything it decodes must
// survive a re-compress / re-decompress cycle, since middlebox action A4
// runs decoded PRBs straight back through the encoder.
func FuzzBFPDecode(f *testing.F) {
	ramp := func(width uint8) []byte {
		var prb iq.PRB
		for k := range prb {
			prb[k].I = int16(k*117 - 700)
			prb[k].Q = int16(500 - k*81)
		}
		p := Params{IQWidth: width, Method: MethodBlockFloatingPoint}
		out, err := CompressPRB(nil, &prb, p)
		if err != nil {
			panic(err)
		}
		return out
	}
	f.Add(ramp(9), Params{IQWidth: 9, Method: MethodBlockFloatingPoint}.Byte())
	f.Add(ramp(14), Params{IQWidth: 14, Method: MethodBlockFloatingPoint}.Byte())
	f.Add(make([]byte, 48), Params{Method: MethodNone}.Byte())
	f.Add([]byte{}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, hdr byte) {
		p := ParamsFromByte(hdr)
		if _, err := PeekExponent(data); err != nil && len(data) > 0 {
			t.Fatalf("PeekExponent failed on %d bytes: %v", len(data), err)
		}
		var prb iq.PRB
		n, exp, err := DecompressPRB(data, &prb, p)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) || n != p.PRBSize() {
			t.Fatalf("DecompressPRB consumed %d of %d bytes (PRBSize %d)", n, len(data), p.PRBSize())
		}
		if exp > MaxExponent {
			t.Fatalf("exponent %d out of range", exp)
		}
		// The decoded block must be encodable again: A4 modify-and-reinject
		// depends on compress never failing for params that just decoded.
		enc, err := CompressPRB(nil, &prb, p)
		if err != nil {
			t.Fatalf("re-compress of decoded PRB failed: %v", err)
		}
		if len(enc) != p.PRBSize() {
			t.Fatalf("re-compress produced %d bytes, PRBSize says %d", len(enc), p.PRBSize())
		}
		var prb2 iq.PRB
		if _, _, err := DecompressPRB(enc, &prb2, p); err != nil {
			t.Fatalf("decode of re-compressed PRB failed: %v", err)
		}
		// Grid-level decode over the same bytes must agree with the
		// single-PRB path.
		g := iq.NewGrid(1)
		if gn, err := DecompressGrid(data, g, p); err != nil || gn != n || g[0] != prb {
			t.Fatalf("DecompressGrid disagrees with DecompressPRB: n=%d vs %d, err=%v", gn, n, err)
		}
	})
}

// FuzzBFPMerge hands MergeGrid arbitrary bytes as one to five sources, each
// under its own arbitrary udCompHdr — mixed widths, MethodNone, reserved
// methods, tails too short for the PRB count — and an arbitrary output
// header, and holds it to the retained three-pass reference
// (DecompressGrid → Grid.AddSat → CompressGrid): the same bytes or the same
// error, never a panic, and nothing emitted on error.
func FuzzBFPMerge(f *testing.F) {
	h9 := Params{IQWidth: 9, Method: MethodBlockFloatingPoint}.Byte()
	h14 := Params{IQWidth: 14, Method: MethodBlockFloatingPoint}.Byte()
	none := Params{Method: MethodNone}.Byte()
	full := make([]byte, 4*2*prbBytes9)
	for i := range full {
		full[i] = byte(i*37 + 11) // exponents 0..15, mantissas of every sign
	}
	f.Add(full, []byte{h9, h9, h9, h9}, h9, uint8(2))
	f.Add(full, []byte{h9}, h9, uint8(8))
	f.Add(full, []byte{h9, h14}, h9, uint8(2))
	f.Add(full, []byte{none, h9, 0x93}, h14, uint8(1))
	f.Add(full[:110], []byte{h9, h9}, h9, uint8(2)) // every source one byte short
	f.Add([]byte{}, []byte{}, byte(0), uint8(0))
	f.Fuzz(func(t *testing.T, data, hdrs []byte, outHdr byte, n uint8) {
		k := (len(hdrs)+4)%5 + 1 // one source per header, wrapped into 1..5
		nPRB := int(n % 16)
		out := ParamsFromByte(outHdr)
		srcs := make([]Section, k)
		chunk := len(data) / k
		for j := range srcs {
			c := out
			if j < len(hdrs) {
				c = ParamsFromByte(hdrs[j])
			}
			srcs[j] = Section{Payload: data[j*chunk : (j+1)*chunk], Comp: c}
		}
		prefix := []byte{0xa5}
		want, wantErr := mergeReference(append([]byte(nil), prefix...), srcs, nPRB, out)
		got, err := MergeGrid(append([]byte(nil), prefix...), srcs, nPRB, out)
		if err != wantErr {
			t.Fatalf("k=%d nPRB=%d: err = %v, three-pass reference says %v", k, nPRB, err, wantErr)
		}
		if err != nil {
			want = prefix
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d nPRB=%d out=%+v:\n one pass   %x\n three pass %x", k, nPRB, out, got, want)
		}
	})
}
