package core

import "ranbooster/internal/telemetry"

// WriteMetrics exports the engine's datapath counters, health, shared
// counter store and (when tracing is on) the trace histograms in the
// Prometheus text format. Everything it reads is race-safe while parallel
// workers run — it is the scrape handler behind ranboosterd's /metrics.
func (e *Engine) WriteMetrics(p *telemetry.PromWriter) {
	st := e.Snapshot()
	l := telemetry.Labels{"engine": e.cfg.Name, "mode": e.cfg.Mode.String()}
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"ranbooster_rx_frames_total", "frames received by the engine", st.RxFrames},
		{"ranbooster_tx_frames_total", "frames transmitted by the engine", st.TxFrames},
		{"ranbooster_parse_errors_total", "frames dropped with undecodable headers", st.ParseError},
		{"ranbooster_invalid_frames_total", "decoded frames dropped by validity checks", st.InvalidFrames},
		{"ranbooster_kernel_tx_total", "frames transmitted by the kernel rule program", st.KernelTx},
		{"ranbooster_kernel_drop_total", "frames dropped by the kernel rule program", st.KernelDrop},
		{"ranbooster_kernel_retired_total", "frames fully retired in-kernel without a userspace packet", st.KernelRetired},
		{"ranbooster_punts_total", "AF_XDP handoffs to the userspace app", st.Punts},
		{"ranbooster_app_drops_total", "frames dropped by the app (A1)", st.AppDrops},
		{"ranbooster_app_errors_total", "app handler failures", st.AppErrors},
		{"ranbooster_ring_drops_total", "frames dropped on full ingress rings", st.RingDrops},
		{"ranbooster_shed_uplane_total", "U-plane data frames shed inside the reserved last eighth of an ingress ring", st.ShedUPlane},
		{"ranbooster_seq_gaps_total", "missing eCPRI sequence numbers", st.SeqGaps},
		{"ranbooster_seq_duplicates_total", "duplicate eCPRI sequence numbers", st.Duplicates},
		{"ranbooster_seq_reordered_total", "late frames behind their stream's high-water mark", st.Reordered},
		{"ranbooster_app_panics_total", "recovered app panics (panic isolation)", st.AppPanics},
		{"ranbooster_quarantined_total", "frames failed to the wire as raw passthrough", st.Quarantined},
		{"ranbooster_shard_restarts_total", "hitless shard restarts by the stall watchdog", st.ShardRestarts},
		{"ranbooster_shed_prach_total", "PRACH frames shed inside the last sixteenth of an ingress ring", st.ShedPRACH},
		{"ranbooster_steals_total", "streams taken from another worker's deque (work-stealing admission)", st.Steals},
		{"ranbooster_shed_total", "all U-plane frames shed at ingress (data + PRACH)", st.ShedUPlane + st.ShedPRACH},
	}
	for _, c := range counters {
		p.Counter(c.name, c.help, l, c.v)
	}
	p.Gauge("ranbooster_health", "engine degradation state (0 healthy, rising with severity)", l, float64(st.Health))
	p.Gauge("ranbooster_breaker_state", "panic circuit breaker (0 closed, 1 half-open, 2 open)", l, float64(st.Breaker))
	for _, name := range e.CounterNames() {
		cl := telemetry.Labels{"engine": e.cfg.Name, "mode": e.cfg.Mode.String(), "counter": name}
		p.Counter("ranbooster_app_counter", "shared kernel/userspace counter map entries", cl, e.CounterValue(name))
	}
	if st.Trace != nil {
		p.TraceStats("ranbooster_trace", l, *st.Trace)
	}
}
