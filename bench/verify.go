package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"ranbooster/internal/core"
)

//go:embed golden.json
var goldenJSON []byte

// goldenSeed is the seed whose emitted bytes are pinned in golden.json.
const goldenSeed = 1

func goldenDigests() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ledger checks everything the engine and the app counted since the rig's
// engine was built against the generator's arithmetic for the cycles
// replayed so far. It returns how many offered frames are not accounted
// correct, and what was wrong.
func (r *rig) ledger(w *workload) (failed uint64, problems []string) {
	c := r.c
	n := uint64(r.cycle)
	offered := n * uint64(len(c.frames))
	st := r.eng.Snapshot()
	want := func(name string, got, exp uint64) {
		if got != exp {
			failed += absDiff(got, exp)
			problems = append(problems, fmt.Sprintf("%s = %d, want %d", name, got, exp))
		}
	}
	want("frames emitted", r.outFrames, n*c.expectOut)
	want("TxFrames", st.TxFrames, n*c.expectOut)
	want("RxFrames", st.RxFrames, offered)
	want("AppDrops", st.AppDrops, n*c.expectDrops)
	for _, z := range []struct {
		name string
		v    uint64
	}{
		{"ParseError", st.ParseError}, {"InvalidFrames", st.InvalidFrames},
		{"AppErrors", st.AppErrors}, {"AppPanics", st.AppPanics}, {"Quarantined", st.Quarantined},
		{"RingDrops", st.RingDrops}, {"ShedUPlane", st.ShedUPlane}, {"ShedPRACH", st.ShedPRACH},
		{"SeqGaps", st.SeqGaps}, {"Duplicates", st.Duplicates}, {"Reordered", st.Reordered},
		{"KernelDrop", st.KernelDrop},
	} {
		want(z.name, z.v, 0)
	}
	if w.xdp {
		want("KernelRetired", st.KernelRetired, offered)
		want("Punts", st.Punts, 0)
		want("prb.seen.dl", r.eng.CounterValue("prb.seen.dl"), n*c.seenDL)
		want("prb.seen.ul", r.eng.CounterValue("prb.seen.ul"), n*c.seenUL)
		want("prb.utilized.dl", r.eng.CounterValue("prb.utilized.dl"), n*c.utilDL)
		want("prb.utilized.ul", r.eng.CounterValue("prb.utilized.ul"), n*c.utilUL)
	}
	if st.Health != core.Healthy {
		problems = append(problems, "engine health is "+st.Health.String())
		if failed == 0 {
			failed = 1
		}
	}
	apps := r.apps()
	want("dmimo SSB replicas", apps.ssbReplicas, n*c.ssbReplicas)
	if failed > offered {
		failed = offered
	}
	return failed, problems
}
