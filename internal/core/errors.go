package core

import "errors"

// Typed construction and lifecycle errors. NewEngine and Start wrap these
// with the middlebox name; match them with errors.Is.
var (
	// ErrNoApp rejects a DPDK engine with no userspace handler (the
	// poll-mode datapath has nowhere else to send packets).
	ErrNoApp = errors.New("engine requires an App")
	// ErrNoKernel rejects an XDP engine with no rule program to load.
	ErrNoKernel = errors.New("XDP engine requires a kernel program")
	// ErrKernelUnverified rejects a rule program that failed verification,
	// the way the eBPF verifier refuses to load an unbounded program.
	ErrKernelUnverified = errors.New("kernel program failed verification")
	// ErrBadCores rejects a core count outside [0, MaxCores] (0 defaults
	// to one core).
	ErrBadCores = errors.New("core count out of range")
	// ErrBadCarrierPRBs rejects a missing carrier width; payload access
	// cannot resolve "all PRBs" encodings without it.
	ErrBadCarrierPRBs = errors.New("CarrierPRBs must be positive")
	// ErrBadMode rejects an unknown datapath mode.
	ErrBadMode = errors.New("unknown datapath mode")
	// ErrBadRing rejects a ring capacity above MaxRingSize.
	ErrBadRing = errors.New("ring size out of range")
	// ErrBadBatch rejects a burst batch size outside [0, MaxBatch] (0
	// defaults to DefaultBatch).
	ErrBadBatch = errors.New("burst batch size out of range")
	// ErrBadPanicBudget rejects a negative SupervisePolicy.PanicBudget
	// (0 disables panic isolation).
	ErrBadPanicBudget = errors.New("panic budget out of range")
	// ErrBadCooldown rejects a negative SupervisePolicy.BreakerCooldown
	// (0 defaults to DefaultBreakerCooldown when isolation is on).
	ErrBadCooldown = errors.New("breaker cooldown out of range")
	// ErrBadStallAfter rejects a negative SupervisePolicy.StallAfter
	// (0 disables the shard watchdog).
	ErrBadStallAfter = errors.New("stall deadline out of range")
	// ErrScaleSupervise rejects combining the work-stealing admission
	// pool with the shard watchdog, which watches a shard's worker and
	// does not follow a stolen stream.
	ErrScaleSupervise = errors.New("work-stealing admission incompatible with the shard watchdog (StallAfter)")
	// ErrSerialApp refuses to start parallel workers for an App that
	// declared itself serial (see SerialApp) on a multi-shard engine.
	ErrSerialApp = errors.New("serial app cannot run parallel workers over multiple shards")
	// ErrRunning rejects Start on an engine whose workers already run.
	ErrRunning = errors.New("engine workers already running")
)
