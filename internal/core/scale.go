package core

// Metro-scale admission (DESIGN.md §6.8): the static eAxC→shard hash
// keys on the RU-port nibble, so at metro scale — hundreds of RUs,
// thousands of antenna-carrier streams — whole classes of streams
// collide on one shard and a single hot cell starves its neighbours.
// ScalePolicy opts the engine into per-stream admission instead: every
// distinct eAxC gets its own SPSC queue, and the shard workers become a
// work-stealing pool that drains whichever streams have backlog
// (per-worker deques, steal-half, hedged pickup of stale streams — see
// wsteal.go for the mechanism and the FIFO argument).

// ScalePolicy selects the admission layout of Config. The zero value
// keeps the classic static eAxC→shard hash — existing deployments are
// untouched.
type ScalePolicy struct {
	// WorkSteal replaces the static eAxC→shard hash with per-stream
	// queues drained by a work-stealing worker pool. Per-eAxC FIFO order
	// and the ≤1 alloc/frame budget are preserved; per-stream state (the
	// sequence tracker, the A3 cache) migrates with the stream, so A3
	// entries written while processing one stream are visible to every
	// later invocation for that stream regardless of which worker runs
	// it.
	//
	// Trade-off: streams are keyed by the full 16-bit eAxC, so tenants
	// that share an RU by addressing the same RU port from different DU
	// ports (distinct eAxC ids) no longer share an A3 cache. Deployments
	// relying on cross-tenant cache hits should keep the hash layout.
	//
	// WorkSteal is incompatible with the shard stall watchdog
	// (SupervisePolicy.StallAfter), which watches a shard's worker and
	// does not follow a stolen stream; NewEngine rejects the combination
	// with ErrScaleSupervise. Panic isolation composes fine, and the shed
	// rule is the same in both layouts (per stream queue here).
	WorkSteal bool
}
