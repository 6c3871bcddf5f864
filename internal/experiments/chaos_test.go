package experiments

import (
	"strings"
	"testing"
)

// TestSuperviseScenarios smoke-runs the supervision rows of the chaos
// experiment — panic isolation, stall watchdog, AIMD shedding — without
// the expensive testbed scenarios. These are the `make chaos-supervise`
// regressions: they must complete (no crash, no hang) and report the
// supervision outcomes the design promises.
func TestSuperviseScenarios(t *testing.T) {
	tbl := &Table{ID: "supervise", Columns: []string{"scenario", "fault script", "recovery / accuracy", "detail"}}
	chaosPanicIsolation(tbl)
	chaosStallDetection(tbl)
	chaosShedAIMD(tbl)
	if len(tbl.Rows) != 2+3+6 {
		t.Fatalf("got %d rows, want 11:\n%s", len(tbl.Rows), tbl)
	}
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "panic isolation"):
			if row[2] != "0 of 5000 frames lost" {
				t.Errorf("%s: %q — isolation lost frames", row[0], row[2])
			}
		case strings.HasPrefix(row[0], "stall watchdog"):
			if row[2] != "shard restarted within bound" || !strings.HasSuffix(row[3], "restarts 1") {
				t.Errorf("%s: %q (%s), want one restart within bound", row[0], row[2], row[3])
			}
		case strings.HasPrefix(row[0], "overload shedding"):
			// The 96-frame offered load sits below every watermark: both
			// policies must shed nothing there (hysteresis).
			if strings.Contains(row[1], "96 frames") && row[2] != "shed 0 data + 0 PRACH, dropped 0" {
				t.Errorf("%s @ light load: %q, want zero sheds", row[0], row[2])
			}
		}
	}
	t.Logf("\n%s", tbl)
}
