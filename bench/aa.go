package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the noise check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchmarkSpec, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns the first quartile, the median and the third quartile
// exactly as Python's statistics.quantiles(values, n=4) gives them, which is
// what the driver uses. It needs at least two values.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// maxFramesSpread is how far the fastest and the slowest of all runs of a
// workload may lie apart in frames_per_sec.
const maxFramesSpread = 1.10

// noiseCheck re-executes this binary for two interleaved sets (ABAB…) of n
// runs per workload, same code and same seeds on both sides, and prints per
// metric both medians, the quartile spread, the distance between the
// medians and the bound. It reports whether every distance stayed inside
// its bound.
func noiseCheck(n, seconds int) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	load, _ := os.ReadFile("/proc/loadavg")
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, load average before %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.TrimSpace(string(load)))
	fmt.Printf("%d + %d interleaved runs per workload, %d s each, seeds 1..%d on both sides\n\n", n, n, seconds, n)
	fmt.Println("| workload | metric | median A | median B | IQR/median A | IQR/median B | distance | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	ok := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		var quiet []float64
		contended := 0
		for i := 0; i < n; i++ {
			for side := range sets {
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(i+1), "-seconds", strconv.Itoa(seconds), "-extended")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s run %d: %w", w.name, i+1, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					return false, fmt.Errorf("%s run %d: %w", w.name, i+1, err)
				}
				if !rep.Correct {
					return false, fmt.Errorf("%s run %d: outputs incorrect", w.name, i+1)
				}
				for name, m := range rep.Metrics {
					sets[side][name] = append(sets[side][name], m.Value)
				}
				quiet = append(quiet, rep.QuietShare)
				if rep.Contended {
					contended++
				}
			}
		}
		for _, m := range spec.EndToEnd {
			a1, am, a3 := quartiles(sets[0][m.Name])
			b1, bm, b3 := quartiles(sets[1][m.Name])
			dist := math.Abs(am-bm) / am
			verdict := "ok"
			if dist > m.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f %% | %.2f %% | %.2f %% | %.1f %% | %s |\n",
				w.name, m.Name, am, bm, 100*(a3-a1)/am, 100*(b3-b1)/bm, 100*dist, 100*m.Bound, verdict)
		}
		all := append(append([]float64(nil), sets[0]["frames_per_sec"]...), sets[1]["frames_per_sec"]...)
		sort.Float64s(all)
		spread := all[len(all)-1] / all[0]
		verdict := "ok"
		if spread > maxFramesSpread {
			verdict, ok = "OUTSIDE", false
		}
		_, qm, _ := quartiles(quiet)
		fmt.Printf("| %s | frames_per_sec max/min of all %d runs | | | | | %.4f | %.2f | %s |\n", w.name, len(all), spread, maxFramesSpread, verdict)
		fmt.Printf("| %s | harness.quiet_share (median), runs flagged contended | %.3f | %d of %d | | | | | |\n", w.name, qm, contended, 2*n)
	}
	load, _ = os.ReadFile("/proc/loadavg")
	fmt.Printf("\nload average after %s\n", strings.TrimSpace(string(load)))
	return ok, nil
}
