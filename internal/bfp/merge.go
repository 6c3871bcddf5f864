package bfp

import "ranbooster/internal/iq"

// Section is one compressed U-plane section as MergeGrid reads it: the
// payload bytes and the udCompHdr parameters they were encoded under.
type Section struct {
	Payload []byte
	Comp    Params
}

// laneParams is the one configuration the lane kernels (lanes.go) handle.
var laneParams = Params{IQWidth: 9, Method: MethodBlockFloatingPoint}

// MergeGrid is middlebox action A4 in one pass: it sums the first nPRB PRBs
// of every source sample by sample — in source order, saturating to int16
// after each addition, exactly as iq.Grid.AddSat accumulates — and appends
// the sum, encoded under out, to dst. One source is a plain transcode. A
// PRB is decoded, summed and re-encoded before the next is touched; no
// decoded grid exists at any point.
//
// The result is byte-identical to DecompressGrid per source, Grid.AddSat in
// order, CompressGrid. Sources are checked in order before anything is
// written — unsupported parameters, then a payload shorter than nPRB PRBs
// (ErrTruncated) — and out last; on error dst is returned unchanged.
// Longer payloads are fine: only the first nPRB PRBs are read. At least one
// source is required.
//
// When every source and out are width-9 BFP the PRBs run through the
// 16-bit-lane kernels; any other mix goes PRB by PRB through the scalar
// per-width kernels.
//
//ranvet:hotpath
func MergeGrid(dst []byte, srcs []Section, nPRB int, out Params) ([]byte, error) {
	if len(srcs) == 0 || nPRB < 0 {
		panic("bfp: MergeGrid needs a source and a non-negative PRB count")
	}
	lanes := out == laneParams
	for j := range srcs {
		c := srcs[j].Comp
		if _, err := codecWidth(c); err != nil {
			return dst, err
		}
		if src := srcs[j].Payload; len(src) < nPRB*c.PRBSize() {
			return dst, ErrTruncated
		}
		lanes = lanes && c == laneParams
	}
	w, err := codecWidth(out)
	if err != nil {
		return dst, err
	}
	size := out.PRBSize()
	base := len(dst)
	dst = grow(dst, nPRB*size)
	if lanes {
		for i := 0; i < nPRB; i++ {
			off := i * prbBytes9
			mergePRB9(dst[base+off:base+off+prbBytes9], srcs, off)
		}
		return dst, nil
	}
	for i := 0; i < nPRB; i++ {
		var acc, prb iq.PRB // adding the first source to zero is exact
		for j := range srcs {
			c := srcs[j].Comp
			src := srcs[j].Payload
			decodePRB(src[i*c.PRBSize():], &prb, c, c.EffectiveWidth())
			acc.AddSat(&prb)
		}
		encodePRB(dst[base+i*size:base+(i+1)*size], &acc, out, w)
	}
	return dst, nil
}
