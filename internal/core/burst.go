package core

import (
	"fmt"

	"ranbooster/internal/fh"
)

// Burst-mode datapath knobs and the burst-aware App extension (DESIGN.md
// §6.6). The shard loop dequeues vectors of frames per poll and amortizes
// per-frame dispatch overhead — ring wakeups, cadence checks, trace
// stamping, counter adds — across the vector, the DPDK burst-processing
// lesson. On an XDP engine the kernel half additionally retires A1/A2-only
// frames entirely in kernel: redirect and replicate verdicts complete
// without constructing a userspace fh.Packet or invoking App.Handle.

// Burst sizing bounds validated by NewEngine.
const (
	// MaxBatch bounds BurstPolicy.Batch — a burst larger than a NIC RX
	// descriptor ring's worth of frames amortizes nothing further.
	MaxBatch = 4096
)

// BurstPolicy groups the burst-datapath knobs of Config. The zero value
// keeps the engine's defaults (DefaultBatch-frame bursts, kernel
// retirement on), so existing callers need not change.
type BurstPolicy struct {
	// Batch bounds how many frames a worker drains per wakeup; the burst
	// loop amortizes per-frame overhead across the vector. 0 defaults to
	// DefaultBatch. Negative values and values above MaxBatch are rejected
	// with ErrBadBatch.
	Batch int
	// DisableKernelRetire turns off in-kernel completion of A1/A2-only
	// frames on an XDP engine: Tx and Drop verdicts then construct the
	// userspace packet exactly as the pre-burst datapath did. The emitted
	// bytes are identical either way; only the per-frame allocation and
	// Stats.KernelRetired attribution differ.
	DisableKernelRetire bool
}

// withDefaults resolves zero fields to the documented defaults.
func (p BurstPolicy) withDefaults() BurstPolicy {
	if p.Batch == 0 {
		p.Batch = DefaultBatch
	}
	return p
}

// validate rejects out-of-range knobs with the typed errors of errors.go.
func (p BurstPolicy) validate() error {
	if p.Batch < 0 || p.Batch > MaxBatch {
		return fmt.Errorf("%w: %d", ErrBadBatch, p.Batch)
	}
	return nil
}

// BurstApp is the optional burst-aware extension of App: an App that also
// implements HandleBurst receives each drained burst's userspace frames in
// one call instead of len(pkts) Handle calls, amortizing per-invocation
// overhead (context setup, synchronization, batched service work).
//
// The engine detects the interface at construction and flushes a burst's
// userspace frames in invocation groups through one code path: the whole
// burst is one group for a BurstApp, each frame is its own group for an
// App that does not implement it — which therefore keeps the exact
// per-frame Handle contract.
//
// # Contract
//
// HandleBurst is called with 1 ≤ len(pkts) ≤ BurstPolicy.Batch packets, in
// ingress order; on a multi-core engine all packets of one call belong to
// one shard (App's concurrency contract applies unchanged). Each packet
// belongs to the handler, exactly as with Handle. Returning an error drops
// the entire burst and counts len(pkts) app errors; for per-packet
// failures that should not discard the rest of the burst, report them with
// Context.PacketError and continue.
type BurstApp interface {
	App
	// HandleBurst processes one drained burst of packets.
	HandleBurst(ctx *Context, pkts []*fh.Packet) error
}
