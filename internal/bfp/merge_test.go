package bfp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ranbooster/internal/iq"
)

// mergeReference is the retained three-pass A4 path MergeGrid replaced and
// must stay byte-identical to: decode every source into a grid, accumulate
// with Grid.AddSat in source order, re-encode.
func mergeReference(dst []byte, srcs []Section, nPRB int, out Params) ([]byte, error) {
	acc, scratch := iq.NewGrid(nPRB), iq.NewGrid(nPRB)
	for j, s := range srcs {
		g := scratch
		if j == 0 {
			g = acc
		}
		if _, err := DecompressGrid(s.Payload, g, s.Comp); err != nil {
			return dst, err
		}
		if j > 0 {
			acc.AddSat(scratch)
		}
	}
	return CompressGrid(dst, acc, out)
}

// lanesOf converts a PRB to lane form (sample 4g in the top lane of words
// 2g and 2g+1) and prb converts back; the tests use them to set the lane
// kernels beside the scalar ones.
func lanesOf(prb *iq.PRB) (p prbLanes) {
	for s := range prb {
		sh := uint(48 - 16*(s%4))
		p[2*(s/4)] |= uint64(uint16(prb[s].I)) << sh
		p[2*(s/4)+1] |= uint64(uint16(prb[s].Q)) << sh
	}
	return p
}

func (p *prbLanes) prb() (prb iq.PRB) {
	for s := range prb {
		sh := uint(48 - 16*(s%4))
		prb[s] = iq.Sample{I: int16(p[2*(s/4)] >> sh), Q: int16(p[2*(s/4)+1] >> sh)}
	}
	return prb
}

// setField9 overwrites 9-bit field k (0..23, I0 Q0 I1 Q1 ...) of a width-9
// mantissa block.
func setField9(mant []byte, k int, v uint16) {
	for b := 0; b < 9; b++ {
		bit := 9*k + b
		mask := byte(0x80) >> (bit % 8)
		if v&(0x100>>b) != 0 {
			mant[bit/8] |= mask
		} else {
			mant[bit/8] &^= mask
		}
	}
}

// TestLaneDecodeMatchesUnpack9 pins the lane decoders to the scalar one:
// every 9-bit mantissa at all 24 field positions, over an all-zeros and an
// all-ones background so a field that leaks into a neighbour shows. load9
// and the saturating accumulate (onto a zero block) take every exponent
// 0..15, hostile ones included; the offset accumulate takes the exponents
// 0..7 mergePRB9 can hand it, started and finished the way mergePRB9 does.
func TestLaneDecodeMatchesUnpack9(t *testing.T) {
	for _, fill := range []byte{0x00, 0xff} {
		for exp := uint8(0); exp <= MaxExponent; exp++ {
			for k := 0; k < 24; k++ {
				for v := uint16(0); v < 512; v++ {
					src := bytes.Repeat([]byte{fill}, prbBytes9)
					// The high nibble of udCompParam is reserved: ignored.
					src[0] = exp | fill&0xf0
					setField9(src[1:], k, v)
					var want iq.PRB
					unpack9(src[1:], &want, exp)
					var got prbLanes
					load9(&got, src)
					if got.prb() != want {
						t.Fatalf("load9: fill %#x exp %d field %d mantissa %#x:\n lanes  %v\n scalar %v", fill, exp, k, v, got.prb(), want)
					}
					got = prbLanes{}
					addSat9(&got, src)
					if got.prb() != want {
						t.Fatalf("addSat9: fill %#x exp %d field %d mantissa %#x:\n lanes  %v\n scalar %v", fill, exp, k, v, got.prb(), want)
					}
					if exp > 7 {
						continue
					}
					for w := range got {
						got[w] = (1<<15 - 256<<exp) * laneOne
					}
					addOffset9(&got, src)
					for w := range got {
						got[w] ^= laneSign
					}
					if got.prb() != want {
						t.Fatalf("addOffset9: fill %#x exp %d field %d mantissa %#x:\n lanes  %v\n scalar %v", fill, exp, k, v, got.prb(), want)
					}
				}
			}
		}
	}
}

// addSatWord is the merge loop's use of the add kernels on one word.
func addSatWord(a, b uint64) uint64 {
	sum, ovf := addLanes(a, b)
	if ovf != 0 {
		sum = saturate(sum, ovf)
	}
	return sum
}

// TestAddLanesMatchesAddSat pins the lanewise saturating add to iq.AddSat:
// the int16 corner values squared plus seeded random pairs, in each of the
// four lanes, with random traffic in the other three.
func TestAddLanesMatchesAddSat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	corners := []int16{-32768, -32767, -1, 0, 1, 32766, 32767}
	type pair struct{ a, b int16 }
	var pairs []pair
	for _, a := range corners {
		for _, b := range corners {
			pairs = append(pairs, pair{a, b})
		}
	}
	for i := 0; i < 4096; i++ {
		pairs = append(pairs, pair{int16(rng.Uint32()), int16(rng.Uint32())})
	}
	for lane := 0; lane < 4; lane++ {
		for _, pr := range pairs {
			var a, b [4]int16
			for l := range a {
				a[l], b[l] = int16(rng.Uint32()), int16(rng.Uint32())
			}
			a[lane], b[lane] = pr.a, pr.b
			var wa, wb uint64
			for l := range a {
				wa |= uint64(uint16(a[l])) << uint(16*l)
				wb |= uint64(uint16(b[l])) << uint(16*l)
			}
			got := addSatWord(wa, wb)
			// An unconditional repair must agree: it is a no-op without overflow.
			sum, ovf := addLanes(wa, wb)
			if always := saturate(sum, ovf); always != got {
				t.Fatalf("saturate not idempotent on %#x + %#x: %#x vs %#x", wa, wb, always, got)
			}
			for l := range a {
				want := iq.AddSat(iq.Sample{I: a[l]}, iq.Sample{I: b[l]}).I
				if g := int16(got >> uint(16*l)); g != want {
					t.Fatalf("lane %d of %v + %v: got %d, want %d", l, a, b, g, want)
				}
			}
		}
	}
}

// TestStore9MatchesPack9 pins the lane encoder to ExponentFor + pack9 at
// every output exponent 0..8: for each, blocks whose largest magnitude sits
// on both edges of the exponent's range, including ExponentFor's
// conservative -2^n case (which needs the true |x|) and, at exponent 8, a
// -32768 sample next to lanes whose low bits would leak through an
// unguarded word shift.
func TestStore9MatchesPack9(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(prb iq.PRB, wantExp int) {
		t.Helper()
		want := make([]byte, prbBytes9)
		encodePRB(want, &prb, laneParams, 9)
		if wantExp >= 0 && int(want[0]) != wantExp {
			t.Fatalf("test block meant for exponent %d encodes at %d", wantExp, want[0])
		}
		got := make([]byte, prbBytes9)
		lanes := lanesOf(&prb)
		store9(got, &lanes)
		if !bytes.Equal(got, want) {
			t.Fatalf("exponent %d block %v:\n lanes  %x\n scalar %x", want[0], prb, got, want)
		}
	}
	for exp := 0; exp <= 8; exp++ {
		// Magnitudes needing exactly this exponent: [2^(7+exp), 2^(8+exp)),
		// from 0 for exponent 0.
		lo, hi := int32(1)<<uint(7+exp), int32(1)<<uint(8+exp)-1
		if exp == 0 {
			lo = 0
		}
		peaks := []int32{lo, -lo, hi, -hi}
		if exp == 8 {
			peaks = []int32{-32768}
		}
		for _, peak := range peaks {
			for pos := 0; pos < 24; pos++ {
				for round := 0; round < 8; round++ {
					var prb iq.PRB
					bound := peak
					if bound < 0 {
						bound = -bound
					}
					for s := range prb {
						// Odd values everywhere: every lane has bit 0 set, the
						// bit a word shift would hand to its neighbour.
						prb[s].I = int16((rng.Int31n(2*bound+1) - bound) | 1)
						prb[s].Q = int16((rng.Int31n(2*bound+1) - bound) | 1)
						if int32(prb[s].I) > bound || int32(prb[s].Q) > bound {
							prb[s] = iq.Sample{I: -1, Q: 1}
						}
					}
					if pos%2 == 0 {
						prb[pos/2].I = int16(peak)
					} else {
						prb[pos/2].Q = int16(peak)
					}
					check(prb, exp)
				}
			}
		}
	}
	for _, prb := range extremePRBs() {
		check(prb, -1)
	}
	for i := 0; i < 2000; i++ {
		check(randomPRB(rng), -1)
	}
}

// mixedParams are the section encodings the differential tests draw from:
// the lane width, the other specialized widths, a generic width, and
// uncompressed.
var mixedParams = []Params{
	{IQWidth: 9, Method: MethodBlockFloatingPoint},
	{IQWidth: 14, Method: MethodBlockFloatingPoint},
	{IQWidth: 0 /* =16 */, Method: MethodBlockFloatingPoint},
	{IQWidth: 12, Method: MethodBlockFloatingPoint},
	{Method: MethodNone},
}

// signalGrid draws the signal mix ranbench generates (bench/corpus.go): six
// PRBs in ten carry 4096..7999 amplitude, the rest 4..119 noise, so four
// sources sum without ever saturating. With saturating set the amplitudes
// span the whole int16 range and sums clip constantly.
func signalGrid(rng *rand.Rand, n int, saturating bool) iq.Grid {
	g := iq.NewGrid(n)
	for i := range g {
		amp := int32(4 + rng.Intn(116))
		if rng.Float64() < 0.6 {
			amp = int32(4096 + rng.Intn(3904))
		}
		if saturating {
			amp = 32767
		}
		for s := range g[i] {
			g[i][s] = iq.Sample{
				I: int16(rng.Int31n(2*amp+1) - amp),
				Q: int16(rng.Int31n(2*amp+1) - amp),
			}
		}
		g[i][0].I = int16(amp)
	}
	return g
}

// TestMergeGridMatchesThreePass runs MergeGrid and the three-pass reference
// over seeded random merges — one to five sources, every mix of encodings
// on the sources and the output, quiet and saturating signal, and raw
// random payload bytes (hostile exponents, mantissas no encoder emits) —
// and requires the same bytes, appended after the same untouched prefix.
func TestMergeGridMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 3000; round++ {
		k := 1 + rng.Intn(5)
		nPRB := rng.Intn(12)
		uniform := round%2 == 0 // half the rounds are all-width-9: the lane path
		out := mixedParams[rng.Intn(len(mixedParams))]
		if uniform {
			out = laneParams
		}
		srcs := make([]Section, k)
		for j := range srcs {
			c := mixedParams[rng.Intn(len(mixedParams))]
			if uniform {
				c = laneParams
			}
			var payload []byte
			if round%3 == 0 {
				payload = make([]byte, nPRB*c.PRBSize()+rng.Intn(3))
				rng.Read(payload)
			} else {
				var err error
				payload, err = CompressGrid(nil, signalGrid(rng, nPRB, round%5 == 1), c)
				if err != nil {
					t.Fatal(err)
				}
			}
			srcs[j] = Section{Payload: payload, Comp: c}
		}
		prefix := []byte{0xa5, 0x5a}
		want, err := mergeReference(append([]byte(nil), prefix...), srcs, nPRB, out)
		if err != nil {
			t.Fatalf("round %d: reference failed: %v", round, err)
		}
		got, err := MergeGrid(append([]byte(nil), prefix...), srcs, nPRB, out)
		if err != nil {
			t.Fatalf("round %d: MergeGrid failed: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (k=%d nPRB=%d out=%+v srcs=%+v):\n one pass   %x\n three pass %x", round, k, nPRB, out, srcs, got, want)
		}
	}
}

// TestMergeGridOffsetBoundary works the switch between the two lane
// accumulates. mergePRB9 adds in offset form when the exponents bound every
// partial sum inside int16 (the sum of 256<<exp over the sources is at most
// 32768) and with saturation otherwise; this drives exponent sets on the
// bound, one step over it and far beyond — up to 129 sources — with the
// mantissas that reach the bound (all -256, all 255) and random ones.
func TestMergeGridOffsetBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(32768))
	expSets := [][]uint8{
		{7},
		{8},
		{6, 6},
		{6, 6, 0},
		{5, 5, 5, 5},
		{5, 5, 5, 5, 0},
		{6, 5, 4, 4},
		{6, 5, 4, 4, 3},
		{7, 0},
		{0, 7},
		{15, 0, 0},
		{3, 9, 3},
		make([]uint8, 128), // 128 × 256: exactly on the bound
		make([]uint8, 129),
	}
	fills := []func([]byte){
		func(m []byte) { // all -256
			for k := 0; k < 24; k++ {
				setField9(m, k, 0x100)
			}
		},
		func(m []byte) { // all +255
			for k := 0; k < 24; k++ {
				setField9(m, k, 0x0ff)
			}
		},
		func(m []byte) { rng.Read(m) },
	}
	const nPRB = 3
	for _, exps := range expSets {
		for fi, fill := range fills {
			srcs := make([]Section, len(exps))
			for j, e := range exps {
				payload := make([]byte, nPRB*prbBytes9)
				for i := 0; i < nPRB; i++ {
					prb := payload[i*prbBytes9 : (i+1)*prbBytes9]
					prb[0] = e
					fill(prb[1:])
				}
				srcs[j] = Section{Payload: payload, Comp: laneParams}
			}
			want, err := mergeReference(nil, srcs, nPRB, laneParams)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MergeGrid(nil, srcs, nPRB, laneParams)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("exponents %v fill %d:\n one pass   %x\n three pass %x", exps, fi, got, want)
			}
		}
	}
}

// TestMergeGridErrors pins the error contract: sources are judged in order
// (parameters, then length), the output parameters last, and a failed
// merge emits nothing.
func TestMergeGridErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nPRB = 4
	good, err := CompressGrid(nil, signalGrid(rng, nPRB, false), laneParams)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := CompressGrid(nil, signalGrid(rng, nPRB, false), mixedParams[1])
	if err != nil {
		t.Fatal(err)
	}
	ok := Section{Payload: good, Comp: laneParams}
	cases := []struct {
		name string
		srcs []Section
		out  Params
		want error
	}{
		{"short lane source", []Section{ok, {Payload: good[:len(good)-1], Comp: laneParams}}, laneParams, ErrTruncated},
		{"short first source", []Section{{Payload: good[:27], Comp: laneParams}, ok}, laneParams, ErrTruncated},
		{"short scalar source", []Section{ok, {Payload: wide[:len(wide)-1], Comp: mixedParams[1]}}, laneParams, ErrTruncated},
		{"reserved method", []Section{ok, {Payload: good, Comp: Params{IQWidth: 9, Method: MethodMuLaw}}}, laneParams, ErrMethod},
		{"width 1", []Section{{Payload: good, Comp: Params{IQWidth: 1, Method: MethodBlockFloatingPoint}}}, laneParams, ErrWidth},
		{"bad output", []Section{ok}, Params{IQWidth: 9, Method: MethodBlockScaling}, ErrMethod},
		{"source judged before output", []Section{{Payload: nil, Comp: laneParams}}, Params{IQWidth: 1, Method: MethodBlockFloatingPoint}, ErrTruncated},
	}
	for _, c := range cases {
		dst := append(make([]byte, 0, 1024), 0xa5)
		got, err := MergeGrid(dst, c.srcs, nPRB, c.out)
		if err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if len(got) != 1 || got[0] != 0xa5 || !bytes.Equal(dst[:cap(dst)][1:], make([]byte, cap(dst)-1)) {
			t.Errorf("%s: a failed merge wrote to the destination", c.name)
		}
		if _, refErr := mergeReference(nil, c.srcs, nPRB, c.out); refErr != c.want {
			t.Errorf("%s: reference err = %v, want %v", c.name, refErr, c.want)
		}
		tx := NewTranscoder()
		if payload, err := tx.MergeGrid(c.srcs, nPRB, c.out); err != c.want || payload != nil || len(tx.arena) != 0 {
			t.Errorf("%s: Transcoder.MergeGrid = %d bytes, err %v, arena %d", c.name, len(payload), err, len(tx.arena))
		}
	}
}

// mergeSources encodes k width-9 carriers of the given signal mix.
func mergeSources(tb testing.TB, k int, saturating bool) []Section {
	rng := rand.New(rand.NewSource(int64(k)))
	srcs := make([]Section, k)
	for j := range srcs {
		wire, err := CompressGrid(nil, signalGrid(rng, 273, saturating), laneParams)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[j] = Section{Payload: wire, Comp: laneParams}
	}
	return srcs
}

// TestMergeGridSteadyStateAllocs: on a Reserved transcoder a full-carrier
// transcode (k=1) and a four-source merge allocate nothing.
func TestMergeGridSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{1, 4} {
		srcs := mergeSources(t, k, false)
		tx := NewTranscoder()
		tx.Reserve(273)
		var runErr error
		n := testing.AllocsPerRun(100, func() {
			tx.Reset()
			in := tx.Sections(k)
			copy(in, srcs)
			if _, err := tx.MergeGrid(in, 273, laneParams); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if n != 0 {
			t.Fatalf("k=%d: MergeGrid allocates %v times per call on a Reserved transcoder, want 0", k, n)
		}
	}
}

// BenchmarkMergeGrid273 times the one-pass merge of full 273-PRB carriers,
// as a transcode (k=1) and as the four-RU DAS merge (k=4), on the signal
// mix ranbench replays (no saturation: the predicted path) and on
// full-scale signal that saturates in most PRBs. The threepass rows run
// the retained reference over the same inputs with pre-sized grids — what
// the apps did before. ns/PRB is per output PRB.
func BenchmarkMergeGrid273(b *testing.B) {
	for _, mix := range []string{"signal", "saturating"} {
		for _, k := range []int{1, 4} {
			srcs := mergeSources(b, k, mix == "saturating")
			b.Run(fmt.Sprintf("%s/k=%d", mix, k), func(b *testing.B) {
				tx := NewTranscoder()
				tx.Reserve(273)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx.Reset()
					if _, err := tx.MergeGrid(srcs, 273, laneParams); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/273, "ns/PRB")
			})
			b.Run(fmt.Sprintf("%s/k=%d/threepass", mix, k), func(b *testing.B) {
				tx := NewTranscoder()
				tx.Reserve(273)
				acc, scratch := tx.Grid(0, 273), tx.Grid(1, 273)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx.Reset()
					if _, err := DecompressGrid(srcs[0].Payload, acc, laneParams); err != nil {
						b.Fatal(err)
					}
					for _, s := range srcs[1:] {
						if _, err := DecompressGrid(s.Payload, scratch, laneParams); err != nil {
							b.Fatal(err)
						}
						acc.AddSat(scratch)
					}
					if _, err := tx.CompressGrid(acc, laneParams); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/273, "ns/PRB")
			})
		}
	}
}
