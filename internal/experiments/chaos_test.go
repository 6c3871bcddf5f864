package experiments

import (
	"strings"
	"testing"
)

// TestSuperviseScenarios smoke-runs the supervision rows of the chaos
// experiment — panic isolation, stall watchdog, overload shedding — without
// the expensive testbed scenarios. These are the `make chaos-supervise`
// regressions: they must complete (no crash, no hang) and report the
// supervision outcomes the design promises.
func TestSuperviseScenarios(t *testing.T) {
	tbl := &Table{ID: "supervise", Columns: []string{"scenario", "fault script", "recovery / accuracy", "detail"}}
	chaosPanicIsolation(tbl)
	chaosStallDetection(tbl)
	chaosShed(tbl)
	if len(tbl.Rows) != 2+3+3 {
		t.Fatalf("got %d rows, want 8:\n%s", len(tbl.Rows), tbl)
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
			// Up to 192 frames the ring's reserved eighth is never
			// reached: nothing may be shed. At 288 the data inside it is
			// given up, and neither PRACH nor C-plane.
			want := "shed 0 data + 0 PRACH, dropped 0"
			if strings.Contains(row[1], "288 frames") {
				want = "shed 48 data + 0 PRACH, dropped 0"
			}
			if row[2] != want {
				t.Errorf("%s, %s: %q, want %q", row[0], row[1], row[2], want)
			}
		}
	}
	t.Logf("\n%s", tbl)
}
