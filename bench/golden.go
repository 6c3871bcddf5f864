package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
)

// benchDir finds the benchmark's own directory from the working directory:
// `go run -C bench` and `go test` start in it, a built binary may be started
// from the repository root. Files the benchmark writes go below it.
func benchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "golden.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("ranbench: run from the repository root or from bench/")
}

// updateGolden regenerates golden.json from the goldenSeed corpus of every
// workload. The new digests take effect at the next build.
func updateGolden() error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	golden := map[string]string{}
	for _, w := range workloads {
		r, err := newRig(w.corpus(goldenSeed), w.engineFunc(false))
		if err != nil {
			return err
		}
		golden[w.name] = r.cycleDigest()
		if _, problems := r.ledger(w); len(problems) > 0 {
			return errors.New("ranbench: " + w.name + ": refusing to pin a run that fails its ledger: " + problems[0])
		}
	}
	out, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(out, '\n'), 0o644)
}
