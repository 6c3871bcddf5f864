// Package benchreg is the single source of truth for the engine
// benchmark workload: the same frames, app and drive loop back
// BenchmarkEngineParallel / BenchmarkEngineTraced (go test -bench), the
// tracing-overhead regression test, and cmd/benchreg, which records the
// numbers to a BENCH_*.json snapshot so successive PRs can be compared.
//
//ranvet:allowfile simclock the benchmark harness measures real elapsed wall time by design; nothing here feeds the seeded datapath
package benchreg

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/testbed"
)

// ServicePause is a fixed per-frame service latency the bench app blocks
// for, on top of its real decode work. Per-packet service time is what the
// sharded datapath overlaps across workers, so the speedup is measurable
// on any host — including single-CPU CI boxes, where pure compute cannot
// scale past GOMAXPROCS.
const ServicePause = 20 * time.Microsecond

// decodeApp does representative userspace work per frame: full packet
// decode plus an Algorithm-1-style exponent scan over a 273-PRB U-plane
// payload, then the fixed service pause.
type decodeApp struct{}

func (decodeApp) Name() string { return "bench-decode" }
func (decodeApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	if err := scanFrame(ctx, pkt); err != nil {
		return err
	}
	time.Sleep(ServicePause)
	ctx.Forward(pkt)
	return nil
}

// burstApp is the burst-aware variant of decodeApp: the same per-frame
// decode and exponent scan, but the fixed service pause is requested once
// per burst for the whole burst's worth of service time. Per-frame service
// latency is identical; what the burst amortizes is the wakeup/dispatch
// overhead of blocking once per frame — the DPDK burst-processing lesson
// the burst datapath exists for.
type burstApp struct{}

func (burstApp) Name() string { return "bench-burst" }

// Handle is the per-frame fallback (exactly decodeApp's work).
func (burstApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	if err := scanFrame(ctx, pkt); err != nil {
		return err
	}
	time.Sleep(ServicePause)
	ctx.Forward(pkt)
	return nil
}

// HandleBurst decodes and scans every frame, then blocks once for the
// burst's aggregate service time.
func (burstApp) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	for _, pkt := range pkts {
		if err := scanFrame(ctx, pkt); err != nil {
			ctx.PacketError(pkt, err)
			continue
		}
		ctx.Forward(pkt)
	}
	time.Sleep(ServicePause * time.Duration(len(pkts)))
	return nil
}

// scanFrame is the shared userspace work: full U-plane decode plus an
// Algorithm-1-style exponent scan over the 273-PRB payload.
func scanFrame(ctx *core.Context, pkt *fh.Packet) error {
	msg := ctx.UPlaneScratch(0)
	if err := pkt.UPlane(msg, 273); err != nil {
		return err
	}
	util := 0
	for i := range msg.Sections {
		s := &msg.Sections[i]
		exps, err := ctx.Transcoder().Exponents(s.Payload, s.Comp)
		if err != nil {
			continue
		}
		for _, e := range exps {
			if e > 0 {
				util++
			}
		}
	}
	ctx.ChargeExponentScan(util)
	return nil
}

// Frames pre-builds full-carrier U-plane frames spread over 8 eAxC
// streams so a sharded engine has parallelism to exploit.
func Frames() ([][]byte, error) {
	payload, err := bfp.CompressGrid(nil, iq.NewGrid(273), testbed.BFP9())
	if err != nil {
		return nil, err
	}
	du := eth.MAC{0x02, 0, 0, 0, 0, 0x01}
	mb := eth.MAC{0x02, 0, 0, 0, 0, 0x02}
	frames := make([][]byte, 8)
	for port := range frames {
		msg := &oran.UPlaneMsg{
			Timing:   oran.Timing{Direction: oran.Downlink, FrameID: 1},
			Sections: []oran.USection{{NumPRB: 273, Comp: testbed.BFP9(), Payload: payload}},
		}
		frames[port] = fh.NewBuilder(du, mb, -1).UPlane(ecpri.PcID{RUPort: uint8(port)}, msg)
	}
	return frames, nil
}

// NewEngine assembles the benchmark engine: the decode app on a sharded
// DPDK datapath, with the frame-span trace collector optionally enabled.
func NewEngine(cores int, traced bool) (*core.Engine, error) {
	tb := testbed.New(1)
	eng, err := core.NewEngine(tb.Sched, core.Config{
		Name: "bench", Mode: core.ModeDPDK, App: decodeApp{},
		CarrierPRBs: 273, Cores: cores, RingSize: 4096, Trace: traced,
	})
	if err != nil {
		return nil, err
	}
	eng.SetOutput(func([]byte) {})
	return eng, nil
}

// NewBurstEngine assembles the burst benchmark engine: the burst-aware
// app on a sharded DPDK datapath with the given BurstPolicy batch size.
func NewBurstEngine(cores, batch int) (*core.Engine, error) {
	tb := testbed.New(1)
	eng, err := core.NewEngine(tb.Sched, core.Config{
		Name: "bench-burst", Mode: core.ModeDPDK, App: burstApp{},
		CarrierPRBs: 273, Cores: cores, RingSize: 4096,
		Burst: core.BurstPolicy{Batch: batch},
	})
	if err != nil {
		return nil, err
	}
	eng.SetOutput(func([]byte) {})
	return eng, nil
}

// Drive pushes n frames through a started engine and blocks until the
// final drain, exactly the loop the benchmarks time.
func Drive(eng *core.Engine, frames [][]byte, n int) {
	for i := 0; i < n; i++ {
		f := frames[i&7]
		for !eng.TryIngress(f) {
			runtime.Gosched()
		}
	}
	eng.Stop() // wait for the drain so every frame is processed
}

// EngineBench returns the benchmark body shared by BenchmarkEngineParallel
// (traced=false) and BenchmarkEngineTraced (traced=true).
func EngineBench(cores int, traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		eng, err := NewEngine(cores, traced)
		if err != nil {
			b.Fatal(err)
		}
		frames, err := Frames()
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		Drive(eng, frames, b.N)
		b.StopTimer()
		if st := eng.Snapshot(); st.RxFrames != uint64(b.N) {
			b.Fatalf("RxFrames = %d, want %d", st.RxFrames, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
	}
}

// BurstBench returns the benchmark body of the burst-size × core-count
// axis (BenchmarkEngineBurst/batch=N/cores=M).
func BurstBench(cores, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		eng, err := NewBurstEngine(cores, batch)
		if err != nil {
			b.Fatal(err)
		}
		frames, err := Frames()
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		Drive(eng, frames, b.N)
		b.StopTimer()
		if st := eng.Snapshot(); st.RxFrames != uint64(b.N) {
			b.Fatalf("RxFrames = %d, want %d", st.RxFrames, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
	}
}

// Result is one benchmark measurement, in the shape BENCH_*.json records.
type Result struct {
	Name   string `json:"name"`
	Cores  int    `json:"cores"`
	Traced bool   `json:"traced"`
	// Batch is the BurstPolicy batch size of a burst-axis measurement
	// (0 on the per-frame axes).
	Batch        int     `json:"batch,omitempty"`
	N            int     `json:"n"`
	NsPerOp      float64 `json:"ns_per_op"`
	FramesPerSec float64 `json:"frames_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// Measure runs one (cores, traced) point under the testing.Benchmark
// harness — the exact code path `go test -bench` uses — and packages the
// outcome.
func Measure(cores int, traced bool) Result {
	name := fmt.Sprintf("BenchmarkEngineParallel/cores=%d", cores)
	if traced {
		name = fmt.Sprintf("BenchmarkEngineTraced/cores=%d", cores)
	}
	r := testing.Benchmark(EngineBench(cores, traced))
	return Result{
		Name:         name,
		Cores:        cores,
		Traced:       traced,
		N:            r.N,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		FramesPerSec: float64(r.N) / r.T.Seconds(),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}
}

// MeasureBurst runs one (cores, batch) point of the burst axis under the
// testing.Benchmark harness and packages the outcome.
func MeasureBurst(cores, batch int) Result {
	r := testing.Benchmark(BurstBench(cores, batch))
	return Result{
		Name:         fmt.Sprintf("BenchmarkEngineBurst/batch=%d/cores=%d", batch, cores),
		Cores:        cores,
		Batch:        batch,
		N:            r.N,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		FramesPerSec: float64(r.N) / r.T.Seconds(),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}
}
