// Command ranbench is the repository's benchmark: it generates a seeded
// fronthaul corpus, replays it through core.Engine with one of the four
// reference apps, verifies every emitted frame and prints every metric by
// name with its unit. See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// report is a result with what the contract's object has no key for.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
	// Contended marks a run in which fewer than 5 % of the bursts came
	// within 10 % of the quiet time: the box was too busy to show the
	// program's own speed. The run is still reported.
	Contended  bool    `json:"contended"`
	QuietShare float64 `json:"quiet_share"`
}

// runOne runs one workload, prints its metrics as a table and warns about
// what is wrong with the run.
func runOne(w *workload, seed int64, seconds, trace int) (*report, error) {
	run := endToEnd
	if trace != 0 {
		run = layered
	}
	res, err := run(w, seed, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "ranbench: %s: INCORRECT: %s\n", w.name, p)
	}
	if res.contended() {
		fmt.Fprintf(os.Stderr, "ranbench: %s: CONTENDED: only %.1f %% of the bursts came within 10 %% of the quiet time\n", w.name, 100*res.quietShare)
	}
	for _, n := range res.order {
		fmt.Printf("%-36s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return &report{Workload: w.name, Seed: seed, result: *res, Contended: res.contended(), QuietShare: res.quietShare}, nil
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ranbench:", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: das_merge, rushare_mux, prbmon_xdp or dmimo_small")
		seed     = flag.Int64("seed", 1, "corpus seed")
		seconds  = flag.Int("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		all      = flag.Bool("all", false, "run the four workloads in sequence and print one JSON document")
		aa       = flag.Int("aa", 0, "A/A noise check: two interleaved sets of this many runs per workload")
		golden   = flag.Bool("update-golden", false, "regenerate golden.json from seed 1 and exit")
		extended = flag.Bool("extended", false, "print the result with workload, seed, contended and quiet_share added")
	)
	flag.Parse()
	switch {
	case *golden:
		if err := updateGolden(); err != nil {
			fatal(err)
		}
	case *aa == 1:
		fatal(fmt.Errorf("-aa needs at least 2 runs a side to have quartiles"))
	case *aa > 1:
		ok, err := noiseCheck(*aa, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		doc := map[string]*report{}
		for _, w := range workloads {
			rep, err := runOne(w, *seed, *seconds, *trace)
			if err != nil {
				fatal(err)
			}
			doc[w.name] = rep
		}
		printJSON(map[string]any{"workloads": doc})
	default:
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "ranbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		rep, err := runOne(w, *seed, *seconds, *trace)
		if err != nil {
			fatal(err)
		}
		if *extended {
			printJSON(rep)
		} else {
			printJSON(rep.result)
		}
	}
}
