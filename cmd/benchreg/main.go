// Command benchreg records the engine benchmark matrix to JSON snapshots
// so successive changes can be compared number against number. It runs
// the exact workloads of BenchmarkEngineParallel, BenchmarkEngineTraced
// and BenchmarkEngineBurst — via testing.Benchmark, the same harness
// `go test -bench` uses — at 1, 2 and 4 cores (traced and untraced on
// the per-frame axis, batch sizes 16/32/64 on the burst axis), plus the
// per-width BFP codec microbenchmarks, into BENCH_6.json; and the
// metro-scale axis — streams × shards × chain-depth scenarios with
// telemetry latency percentiles and loss, plus the skewed-load
// hash-vs-worksteal comparison — into BENCH_8.json.
//
// Usage:
//
//	benchreg                  # writes BENCH_6.json and BENCH_8.json
//	benchreg -o bench.json -scale-o scale.json
//	benchreg -scale-only      # only the metro-scale axis / BENCH_8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ranbooster/internal/benchreg"
)

// snapshot is the BENCH_*.json document.
type snapshot struct {
	Timestamp  string            `json:"timestamp"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    []benchreg.Result `json:"results"`
	// TracingOverhead is (traced − untraced) / untraced ns/op at each core
	// count — informational on a shared host; the regression gate is
	// TestTracingOverhead (internal/benchreg).
	TracingOverhead map[string]float64 `json:"tracing_overhead"`
	// Codec holds the per-width BFP compress/decompress and exponent-scan
	// microbenchmarks over a full 273-PRB carrier.
	Codec []benchreg.CodecResult `json:"codec"`
}

// scaleSnapshot is the BENCH_8.json document: the metro-scale axis.
type scaleSnapshot struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Metro holds the streams × shards × chain-depth scenario points:
	// virtual latency percentiles and loss from the engines' telemetry.
	Metro []benchreg.ScaleResult `json:"metro"`
	// Skew holds the skewed-load wall-clock comparison of the static
	// eAxC→shard hash against the work-stealing admission pool.
	Skew []benchreg.Result `json:"skew"`
}

// metroSlots sizes each scenario point; ~200k frames at the largest point.
const metroSlots = 200

func runScale(out string) error {
	snap := scaleSnapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// One-at-a-time sweeps around the center point (256 streams, 4
	// shards, chain 2), plus the 1024-stream depth-3 acceptance point.
	points := [][3]int{
		{64, 4, 2}, {256, 4, 2}, {1024, 4, 2},
		{256, 1, 2}, {256, 2, 2},
		{256, 4, 1}, {256, 4, 3},
		{1024, 4, 3},
	}
	for _, p := range points {
		r, err := benchreg.MetroScale(p[0], p[1], p[2], metroSlots)
		if err != nil {
			return err
		}
		fmt.Printf("%-44s %8d frames  p50 %8.0f ns  p99 %8.0f ns  loss %.4f  (%.0f ms wall)\n",
			r.Name, r.Frames, r.P50Ns, r.P99Ns, r.LossRate, r.WallMs)
		snap.Metro = append(snap.Metro, r)
	}
	for _, ws := range []bool{false, true} {
		for _, cores := range []int{1, 4} {
			r := benchreg.MeasureSkew(cores, ws)
			fmt.Printf("%-44s %12.0f ns/op %12.0f frames/sec %6d allocs/op\n",
				r.Name, r.NsPerOp, r.FramesPerSec, r.AllocsPerOp)
			snap.Skew = append(snap.Skew, r)
		}
	}
	buf, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_6.json", "engine-matrix output file")
	scaleOut := flag.String("scale-o", "BENCH_8.json", "metro-scale output file")
	scaleOnly := flag.Bool("scale-only", false, "record only the metro-scale axis")
	flag.Parse()

	if *scaleOnly {
		if err := runScale(*scaleOut); err != nil {
			exit(err)
		}
		return
	}

	snap := snapshot{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		TracingOverhead: make(map[string]float64),
	}
	plain := make(map[int]benchreg.Result)
	for _, traced := range []bool{false, true} {
		for _, cores := range []int{1, 2, 4} {
			r := benchreg.Measure(cores, traced)
			fmt.Printf("%-36s %12.0f ns/op %12.0f frames/sec %6d allocs/op\n",
				r.Name, r.NsPerOp, r.FramesPerSec, r.AllocsPerOp)
			snap.Results = append(snap.Results, r)
			if !traced {
				plain[cores] = r
			} else if base, ok := plain[cores]; ok && base.NsPerOp > 0 {
				key := fmt.Sprintf("cores=%d", cores)
				snap.TracingOverhead[key] = (r.NsPerOp - base.NsPerOp) / base.NsPerOp
			}
		}
	}
	for _, cores := range []int{1, 2, 4} {
		key := fmt.Sprintf("cores=%d", cores)
		fmt.Printf("tracing overhead %-10s %+.2f%%\n", key, snap.TracingOverhead[key]*100)
	}

	// The burst-size × core-count axis (BurstApp + kernel-retire datapath).
	for _, batch := range []int{16, 32, 64} {
		for _, cores := range []int{1, 2, 4} {
			r := benchreg.MeasureBurst(cores, batch)
			fmt.Printf("%-36s %12.0f ns/op %12.0f frames/sec %6d allocs/op\n",
				r.Name, r.NsPerOp, r.FramesPerSec, r.AllocsPerOp)
			snap.Results = append(snap.Results, r)
		}
	}

	codec, err := benchreg.MeasureCodecs()
	if err != nil {
		exit(err)
	}
	snap.Codec = codec
	for _, c := range codec {
		fmt.Printf("%-36s %12.1f ns/op %10.1f MB/s %6d allocs/op\n",
			c.Name, c.NsPerOp, c.MBPerSec, c.AllocsPerOp)
	}

	buf, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		exit(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		exit(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if err := runScale(*scaleOut); err != nil {
		exit(err)
	}
}

func exit(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
