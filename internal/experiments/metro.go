package experiments

import (
	"fmt"

	"ranbooster/internal/core"
	"ranbooster/internal/telemetry"
	"ranbooster/internal/testbed"
)

func init() {
	register("metro", runMetroScale)
}

// runMetroScale renders the metro-scale axis on the deterministic clock:
// streams × shards × chain-depth scenario points with per-frame sojourn
// percentiles and the end-to-end loss rate read from the engines'
// telemetry. The numbers are cost-model virtual time, not measured wall
// time, and seed-stable, so the table regenerates identically on every
// host.
func runMetroScale() *Table {
	t := &Table{
		ID:      "metro",
		Title:   "Metro-scale chained middleboxes (streams × shards × chain depth)",
		Columns: []string{"streams", "shards", "chain", "frames", "p50 us", "p99 us", "loss", "steals"},
	}
	points := [][3]int{
		{64, 4, 2}, {256, 4, 2}, {1024, 4, 2},
		{256, 1, 2}, {256, 2, 2},
		{256, 4, 1}, {256, 4, 3},
	}
	const slots = 100
	for _, p := range points {
		streams, shards, chain := p[0], p[1], p[2]
		cells := (streams + 3) / 4
		m, err := testbed.NewMetro(testbed.MetroConfig{
			Floors: (cells + 3) / 4, CellsPerFloor: 4, PortsPerRU: 4,
			ChainDepth: chain,
			Cores:      shards,
			Scale:      core.ScalePolicy{WorkSteal: true},
			Trace:      true,
			Seed:       8,
		})
		if err != nil {
			panic(err)
		}
		m.RunSlots(slots)
		m.Flush()
		rep := m.Conservation(0)
		if err := rep.Check(); err != nil {
			panic(err)
		}
		var tr telemetry.TraceStats
		var steals uint64
		for _, e := range m.Engines {
			st := e.Snapshot()
			steals += st.Steals
			if st.Trace != nil {
				tr = tr.Merge(*st.Trace)
			}
		}
		p50, _ := tr.Stage[telemetry.StageTotal].Quantile(0.50)
		p99, _ := tr.Stage[telemetry.StageTotal].Quantile(0.99)
		loss := float64(m.Injected()-rep.Sink.Delivered) / float64(m.Injected())
		t.AddRow(
			fmt.Sprintf("%d", m.Config().Streams()),
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", chain),
			fmt.Sprintf("%d", m.Injected()),
			fmt.Sprintf("%.1f", float64(p50.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(p99.Nanoseconds())/1e3),
			pctCell(loss),
			fmt.Sprintf("%d", steals),
		)
	}
	t.Note("%d slots per point, work-stealing admission, frame conservation checked end to end", slots)
	t.Note("latency is virtual time (telemetry StageTotal) across all hops; steals are 0 in deterministic inline mode")
	return t
}
