package bfp

import "ranbooster/internal/iq"

// Transcoder owns the reusable scratch a middlebox needs to run the A4
// decode → modify → re-encode cycle without allocating in steady state: a
// byte arena for re-encoded payloads, a source list for MergeGrid, and an
// exponent buffer for batched header scans. The engine gives every shard
// one Transcoder, pre-sized to the carrier, and hands it to apps through
// core.Context; because frames of one eAxC stream always land on the same
// shard, no synchronization is needed.
//
// Ownership rules (DESIGN.md §6.5): call Reset once at the start of each
// transcode transaction (one Handle invocation); every slice handed out —
// MergeGrid/CompressGrid/AppendBytes payloads, Exponents results, the
// Sections list — remains valid only until the next Reset (Sections and
// Exponents results only until the next call of the same method). If the
// arena must grow mid-frame the previously returned payload slices keep
// their old backing and stay readable for the rest of the transaction.
//
// The datapath never decodes into a grid: MergeGrid goes from compressed
// sources to a compressed payload PRB by PRB. Grid slots remain for code
// that wants decoded IQ to look at (the benchmark's stage replay, the
// three-pass reference the tests compare MergeGrid against); they grow on
// first use and their contents are unspecified until the caller overwrites
// (or Clear()s) them.
//
//ranvet:hotpath
type Transcoder struct {
	grids []iq.Grid
	arena []byte
	exps  []uint8
	srcs  []Section
}

// NewTranscoder returns an empty Transcoder. Reserve pre-sizes it so that
// steady-state use never grows.
func NewTranscoder() *Transcoder { return &Transcoder{} }

// Reserve grows the scratch to cover a carrier of nPRB PRBs: an arena able
// to hold two full-width re-encoded carriers and one exponent per PRB.
// Idempotent; never shrinks.
func (t *Transcoder) Reserve(nPRB int) {
	if nPRB <= 0 {
		return
	}
	if need := 2 * nPRB * (iq.SubcarriersPerPRB*4 + 1); cap(t.arena) < need {
		//ranvet:allow alloc arena sized once to the carrier at engine start, reused per frame
		buf := make([]byte, len(t.arena), need)
		copy(buf, t.arena)
		t.arena = buf
	}
	if cap(t.exps) < nPRB {
		//ranvet:allow alloc exponent scratch sized once to the carrier, reused per frame
		buf := make([]uint8, len(t.exps), nPRB)
		copy(buf, t.exps)
		t.exps = buf
	}
}

// Reset begins a new transcode transaction: the arena and exponent buffer
// rewind to empty, the source list lets go of the last transaction's
// payloads, and every slice handed out earlier becomes dead. Grid slots
// keep their capacity (and stale contents).
func (t *Transcoder) Reset() {
	clear(t.srcs)
	//ranvet:allow bounds rewinding to [:0] can never exceed the backing array
	t.arena = t.arena[:0]
	//ranvet:allow bounds rewinding to [:0] can never exceed the backing array
	t.exps = t.exps[:0]
}

// Grid returns scratch grid slot `slot` resized to n PRBs. Contents are
// unspecified — callers must fully overwrite (e.g. via DecompressGrid) or
// Clear() before accumulating. Slots and capacities grow on first use and
// are retained across Reset.
func (t *Transcoder) Grid(slot, n int) iq.Grid {
	for len(t.grids) <= slot {
		t.grids = append(t.grids, nil)
	}
	g := t.grids[slot]
	if cap(g) < n {
		//ranvet:allow alloc grid scratch grows to carrier size once, then is reused
		g = make(iq.Grid, n)
	}
	g = g[:n]
	t.grids[slot] = g
	return g
}

// Sections returns the reusable source list resized to n entries, for the
// caller to fill and hand to MergeGrid. It is the same storage on every
// call: valid until the next Sections call or Reset. It grows on first use
// and keeps its capacity.
func (t *Transcoder) Sections(n int) []Section {
	for len(t.srcs) < n {
		t.srcs = append(t.srcs, Section{})
	}
	return t.srcs[:n]
}

// MergeGrid runs the package-level MergeGrid — sum the first nPRB PRBs of
// every source in order with int16 saturation, re-encode under out — into
// the arena and returns the payload as a capacity-clipped view, valid until
// the next Reset. On error nothing is emitted.
func (t *Transcoder) MergeGrid(srcs []Section, nPRB int, out Params) ([]byte, error) {
	base := len(t.arena)
	merged, err := MergeGrid(t.arena, srcs, nPRB, out)
	if err != nil {
		return nil, err
	}
	t.arena = merged
	return merged[base:len(merged):len(merged)], nil
}

// CompressGrid encodes g into the arena and returns the encoded payload as
// a capacity-clipped view, valid until the next Reset.
func (t *Transcoder) CompressGrid(g iq.Grid, p Params) ([]byte, error) {
	base := len(t.arena)
	out, err := CompressGrid(t.arena, g, p)
	if err != nil {
		return nil, err
	}
	t.arena = out
	return out[base:len(out):len(out)], nil
}

// AppendBytes copies b into the arena and returns the copy, valid until the
// next Reset. This is the zero-steady-state-alloc replacement for the
// `append([]byte(nil), b...)` payload-detach idiom.
func (t *Transcoder) AppendBytes(b []byte) []byte {
	base := len(t.arena)
	t.arena = grow(t.arena, len(b))
	copy(t.arena[base:], b)
	return t.arena[base:len(t.arena):len(t.arena)]
}

// Exponents scans src with AppendExponents into the reusable exponent
// buffer and returns it, valid until the next call or Reset.
func (t *Transcoder) Exponents(src []byte, p Params) ([]uint8, error) {
	//ranvet:allow bounds rewinding to [:0] can never exceed the backing array
	out, err := AppendExponents(t.exps[:0], src, p)
	if err != nil {
		return nil, err
	}
	t.exps = out
	return out, nil
}
