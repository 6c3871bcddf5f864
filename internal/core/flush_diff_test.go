package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/fh"
	"ranbooster/internal/fh/fhtest"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

// The flush differential (ROADMAP 3(a), flush-sized): one handler, run
// once as a per-frame App and once as a BurstApp whose HandleBurst is the
// Handle+PacketError loop the reference apps use, must be
// indistinguishable from outside the engine — whichever way the engine
// groups parked frames into App invocations, and whatever supervision
// brackets the invocation.

var errDiffFrame = errors.New("diff: frame refused")

// diffHandle is the handler under both shapes. What it does to a packet is
// a pure function of the packet, so the two shapes cannot drift apart
// through call order: every 7th is refused (dropped, then an error — the
// dmimo idiom), every 5th dropped silently, every 3rd replicated towards a
// second RU, the rest forwarded.
func diffHandle(ctx *Context, pkt *fh.Packet) error {
	tm, err := pkt.Timing()
	if err != nil {
		return err
	}
	switch v := int(tm.FrameID) + int(tm.SymbolID) + int(pkt.EAxC().RUPort); {
	case v%7 == 0:
		ctx.Drop(pkt)
		return errDiffFrame
	case v%5 == 0:
		ctx.Drop(pkt)
	case v%3 == 0:
		cp := ctx.Replicate(pkt)
		if err := ctx.Redirect(cp, ru2MAC, pkt.Eth.Src, -1); err != nil {
			return err
		}
		ctx.Forward(pkt)
	default:
		ctx.Forward(pkt)
	}
	return nil
}

// diffBurstApp is the handler's BurstApp shape; appFunc(diffHandle) is its
// per-frame shape.
type diffBurstApp struct{ appFunc }

func (a diffBurstApp) HandleBurst(ctx *Context, pkts []*fh.Packet) error {
	for _, pkt := range pkts {
		if err := a.Handle(ctx, pkt); err != nil {
			ctx.PacketError(pkt, err)
		}
	}
	return nil
}

// diffFrame is one corpus frame and the virtual instant the inline runs
// offer it at.
type diffFrame struct {
	at    sim.Time
	frame []byte
}

// diffCorpus builds the seeded mixed traffic: four eAxCs, both directions,
// roughly one C-plane frame in eight, arrival gaps from back-to-back
// (queueing behind a busy core) to tens of microseconds (an idle core, so
// the XDP wake surcharge applies to some frames and not others).
func diffCorpus(t *testing.T, n int) []diffFrame {
	t.Helper()
	rng := sim.NewRNG(17)
	b := fh.NewBuilder(duMAC, ruMAC, 6)
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(4), bfp9())
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([]diffFrame, n)
	var at sim.Time
	for i := range corpus {
		dir := oran.Downlink
		if rng.Intn(2) == 0 {
			dir = oran.Uplink
		}
		pc := ecpri.PcID{RUPort: uint8(rng.Intn(4))}
		tm := oran.Timing{Direction: dir, FrameID: uint8(rng.Intn(12)), SymbolID: uint8(rng.Intn(14))}
		var frame []byte
		if rng.Intn(8) == 0 {
			frame = b.CPlane(pc, &oran.CPlaneMsg{Timing: tm, SectionType: oran.SectionType1, Comp: bfp9(),
				Sections: []oran.CSection{{NumPRB: 106, ReMask: 0xfff, NumSymbol: 14}}})
		} else {
			frame = b.UPlane(pc, &oran.UPlaneMsg{Timing: tm,
				Sections: []oran.USection{{NumPRB: 4, Comp: bfp9(), Payload: payload}}})
		}
		if rng.Intn(4) != 0 {
			at = at.Add(time.Duration(rng.Intn(40)) * time.Microsecond)
		}
		corpus[i] = diffFrame{at: at, frame: frame}
	}
	return corpus
}

// diffResult is everything the differential observes of one run.
type diffResult struct {
	frames [][]byte   // emitted frames, in emission order
	at     []sim.Time // virtual emit instants (inline runs only)
	stats  Stats
	lat    [classCount][]time.Duration // sorted service-time samples per class
}

// digest folds the whole observation into one number, logged per case so
// two trees can be compared with `go test -v -run TestFlushDifferential`.
func (r *diffResult) digest() uint64 {
	h := fnv.New64a()
	for i, f := range r.frames {
		h.Write(f)
		if r.at != nil {
			fmt.Fprint(h, r.at[i])
		}
	}
	fmt.Fprintf(h, "%+v %v", r.stats, r.lat)
	return h.Sum64()
}

// runDiff replays the corpus through a fresh engine: inline (Ingress at
// each frame's instant, then s.Run()) when batch is 0, otherwise whitebox
// through drainDirect in bursts of batch frames. Redirect rewrites frames
// in place, so every run gets its own copy of the corpus bytes.
func runDiff(t *testing.T, cfg Config, corpus []diffFrame, batch int) *diffResult {
	t.Helper()
	s := sim.NewScheduler()
	cfg.Name, cfg.CarrierPRBs = "diff", 106
	cfg.Burst.Batch = batch
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &diffResult{}
	if batch == 0 {
		collect := fhtest.CopyTo(&res.frames)
		e.SetOutput(func(f []byte) {
			collect(f)
			res.at = append(res.at, s.Now())
		})
		for _, cf := range corpus {
			frame := append([]byte(nil), cf.frame...)
			s.At(cf.at, func() { e.Ingress(frame) })
		}
		s.Run()
	} else {
		e.SetOutput(fhtest.CopyTo(&res.frames))
		chunk := make([][]byte, 0, batch)
		for i, cf := range corpus {
			chunk = append(chunk, append([]byte(nil), cf.frame...))
			if len(chunk) == batch || i == len(corpus)-1 {
				drainDirect(t, e, chunk)
				chunk = chunk[:0]
			}
		}
	}
	for c := range res.lat {
		for _, sh := range e.shards {
			res.lat[c] = sh.latencySamples(res.lat[c], TrafficClass(c))
		}
		sort.Slice(res.lat[c], func(i, j int) bool { return res.lat[c][i] < res.lat[c][j] })
	}
	res.stats = e.Snapshot()
	return res
}

// multisetDiff walks two sorted sample lists and counts the elements only
// a holds and the elements only b holds.
func multisetDiff(a, b []time.Duration) (onlyA, onlyB int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i, j = i+1, j+1
		case a[i] < b[j]:
			onlyA, i = onlyA+1, i+1
		default:
			onlyB, j = onlyB+1, j+1
		}
	}
	return onlyA + len(a) - i, onlyB + len(b) - j
}

func TestFlushDifferential(t *testing.T) {
	corpus := diffCorpus(t, 1200)
	// The punting program: the kernel retires a third of the DL U-plane and
	// drops UL C-plane; everything else crosses into userspace, so kernel
	// completions and parked frames interleave inside one burst.
	ul := oran.Uplink
	prog := &KernelProgram{Rules: []Rule{
		{Match: Match{Plane: fh.PlaneU, Dir: dirPtr(oran.Downlink), FrameMod: 3, FrameVal: 0},
			Verdict: VerdictTx, Rewrite: &Rewrite{SetDst: &ru2MAC}},
		{Match: Match{Plane: fh.PlaneC, Dir: &ul}, Verdict: VerdictDrop},
	}}
	supervision := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Mode: ModeDPDK}},
		{"isolate", Config{Mode: ModeDPDK, Supervise: SupervisePolicy{PanicBudget: 3}}},
		{"xdp-punt", Config{Mode: ModeXDP, Kernel: prog}},
	}
	for _, sup := range supervision {
		for _, batch := range []int{0, 16, 64} {
			name := fmt.Sprintf("%s/batch%d", sup.name, batch)
			if batch == 0 {
				name = sup.name + "/inline"
			}
			t.Run(name, func(t *testing.T) {
				frameCfg, burstCfg := sup.cfg, sup.cfg
				frameCfg.App, burstCfg.App = appFunc(diffHandle), diffBurstApp{diffHandle}
				if batch == 0 {
					frameCfg.Cores, burstCfg.Cores = 2, 2
				}
				perFrame := runDiff(t, frameCfg, corpus, batch)
				burst := runDiff(t, burstCfg, corpus, batch)
				t.Logf("digest per-frame %016x burst %016x", perFrame.digest(), burst.digest())

				if st := perFrame.stats; st.AppErrors == 0 || st.AppDrops == 0 || st.TxFrames == 0 ||
					(sup.cfg.Mode == ModeXDP && (st.KernelRetired == 0 || st.KernelDrop == 0 || st.Punts == 0)) {
					t.Fatalf("corpus does not exercise the flush: %+v", st)
				}
				if perFrame.stats != burst.stats {
					t.Errorf("stats differ:\n per-frame %+v\n burst     %+v", perFrame.stats, burst.stats)
				}
				if len(perFrame.frames) != len(burst.frames) {
					t.Fatalf("emitted %d frames per-frame, %d as a BurstApp", len(perFrame.frames), len(burst.frames))
				}
				for i := range perFrame.frames {
					if !bytes.Equal(perFrame.frames[i], burst.frames[i]) {
						t.Fatalf("emission %d differs between the per-frame App and the BurstApp", i)
					}
				}
				if batch != 0 {
					// Bursts above one frame: the App stage's cost is charged
					// once per group and averaged over its frames, by design,
					// so instants and latency samples are not comparable.
					return
				}
				for i := range perFrame.at {
					if perFrame.at[i] != burst.at[i] {
						t.Fatalf("emission %d leaves at %v per-frame, %v as a BurstApp", i, perFrame.at[i], burst.at[i])
					}
				}
				// Every latency sample of the per-frame run must reappear
				// under the BurstApp, class by class. The one asymmetry: a
				// refused frame leaves a sample only there (HandleBurst
				// returned nil for its group), so the BurstApp run holds
				// exactly AppErrors more.
				extra := 0
				for c := range perFrame.lat {
					missing, more := multisetDiff(perFrame.lat[c], burst.lat[c])
					if missing != 0 {
						t.Errorf("%v: %d per-frame latency samples have no equal under the BurstApp", TrafficClass(c), missing)
					}
					extra += more
				}
				if uint64(extra) != burst.stats.AppErrors {
					t.Errorf("BurstApp run holds %d extra latency samples, want one per refused frame (%d)", extra, burst.stats.AppErrors)
				}
			})
		}
	}
}
