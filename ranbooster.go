// Package ranbooster is the public API of the RANBooster reproduction: a
// software middlebox framework for the O-RAN fronthaul (SIGCOMM 2025),
// together with the simulated enterprise testbed it is evaluated on.
//
// The package re-exports the stable surface of the internal packages:
//
//   - the middlebox framework (App, Context, Engine, kernel programs) —
//     the paper's §3 contribution;
//   - the four reference applications of §4 (DAS, dMIMO, RU sharing,
//     real-time PRB monitoring);
//   - the testbed (five floors, RUs, DUs, UEs, switch fabric) and the
//     scenario builders used by the examples and experiments;
//   - the experiment runners regenerating every table and figure of §6.
//
// A minimal middlebox:
//
//	type myApp struct{}
//
//	func (myApp) Name() string { return "my-middlebox" }
//	func (myApp) Handle(ctx *ranbooster.Context, pkt *ranbooster.Packet) error {
//		ctx.Forward(pkt) // A1; see also Replicate (A2), Cache (A3), ModifyUPlane (A4)
//		return nil
//	}
//
// wired into a testbed:
//
//	tb := ranbooster.NewTestbed(1)
//	eng, _ := ranbooster.NewEngine(tb.Sched, ranbooster.EngineConfig{
//		Name: "my-middlebox", Mode: ranbooster.ModeDPDK, App: myApp{}, CarrierPRBs: 273,
//	})
//	tb.AddEngine(eng, tb.NewMAC())
//
// # Who owns a frame
//
// The datapath recycles the packets and frame buffers it makes through a
// per-worker frame pool instead of handing them to the collector, so three
// lifetimes matter to code around an Engine (DESIGN.md §6.10):
//
//   - The buffer passed to Engine.Ingress stays the caller's: it is decoded
//     in place and forwarded zero-copy, never released by the engine.
//   - A packet handed to App.Handle, and every packet the handler obtains
//     from its Context (Replicate, Rebuild, ModifyUPlane/ModifyCPlane,
//     TakeCached), may be forwarded, cached, mutated, replicated or dropped
//     — not kept elsewhere past Handle. Context.Cache is the one way to
//     keep a packet longer. The slice TakeCached returns is valid until
//     Handle returns, the one Cached returns until the next Cache or
//     TakeCached of that key.
//   - The function given to Engine.SetOutput is lent each frame: it is
//     borrowed until the function returns; copy to retain.
//
// After a run, read the engine's merged datapath counters with
// eng.Snapshot(); set EngineConfig.Cores > 1 to shard the datapath by
// antenna-carrier stream, and eng.Start()/eng.Stop() to process on real
// parallel worker goroutines outside a simulated fabric.
//
// See examples/ for complete scenarios.
package ranbooster

import (
	"ranbooster/internal/air"
	"ranbooster/internal/apps/das"
	"ranbooster/internal/apps/dmimo"
	"ranbooster/internal/apps/fhguard"
	"ranbooster/internal/apps/prbmon"
	"ranbooster/internal/apps/resilience"
	"ranbooster/internal/apps/rushare"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/eth"
	"ranbooster/internal/experiments"
	"ranbooster/internal/fh"
	"ranbooster/internal/phy"
	"ranbooster/internal/radio"
	"ranbooster/internal/telemetry"
	"ranbooster/internal/testbed"
)

// Middlebox framework (§3).
type (
	// App is the middlebox template: user code handling each C/U-plane
	// packet through the Context's A1-A4 actions. See core.App for the
	// concurrency contract Handle must meet on multi-core engines, and
	// "Who owns a frame" above for how long Handle may use its packets.
	App = core.App
	// SerialApp marks an App whose cross-stream state is not shard-safe;
	// such an App refuses parallel workers over more than one shard.
	SerialApp = core.SerialApp
	// BurstApp is the optional burst-aware App extension: an App that also
	// implements HandleBurst receives each drained burst of packets in one
	// call. Detected at engine construction; the engine invokes either
	// shape through one path — the burst as one group, or a group per
	// frame — so plain Apps keep the per-frame Handle contract unchanged.
	BurstApp = core.BurstApp
	// BurstPolicy tunes the burst datapath (EngineConfig.Burst): batch
	// size and kernel fast-path retirement. The zero value keeps the
	// defaults.
	BurstPolicy = core.BurstPolicy
	// Context exposes the four RANBooster actions plus telemetry.
	Context = core.Context
	// Packet is one fronthaul frame with decoded protocol views.
	Packet = fh.Packet
	// Engine runs an App over a fronthaul attachment point; its datapath
	// is sharded across EngineConfig.Cores workers by eAxC RU port. The
	// function given to SetOutput only borrows each frame.
	Engine = core.Engine
	// EngineConfig configures an Engine. It is consumed by NewEngine;
	// mutating it afterwards is deprecated and unsupported.
	EngineConfig = core.Config
	// EngineStats is the merged datapath counter snapshot returned by
	// Engine.Snapshot; combine snapshots with its Add method.
	EngineStats = core.Stats
	// Mode selects the datapath (DPDK-like poll mode or XDP-like).
	Mode = core.Mode
	// KernelProgram is the verified in-kernel rule program of an XDP
	// middlebox.
	KernelProgram = core.KernelProgram
	// KernelRule is one rule of a KernelProgram.
	KernelRule = core.Rule
	// SupervisePolicy tunes engine supervision (EngineConfig.Supervise):
	// App panic isolation with a per-shard circuit breaker and the shard
	// stall watchdog behind Engine.Supervise. The zero value disables
	// both.
	SupervisePolicy = core.SupervisePolicy
	// ScalePolicy selects the engine's admission layout
	// (EngineConfig.Scale): the zero value keeps the static eAxC→shard
	// hash; WorkSteal replaces it with per-stream queues drained by a
	// work-stealing worker pool that preserves per-eAxC FIFO order while
	// spreading skewed load across all cores.
	ScalePolicy = core.ScalePolicy
	// BreakerState is the panic-isolation circuit breaker's position
	// (EngineStats.Breaker, and the KPIBreaker telemetry series).
	BreakerState = core.BreakerState
	// MAC is an Ethernet address.
	MAC = eth.MAC
)

// Engine construction and lifecycle errors, re-exported for errors.Is
// matching against NewEngine and Engine.Start failures.
var (
	// ErrNoApp rejects a DPDK engine with no userspace handler.
	ErrNoApp = core.ErrNoApp
	// ErrNoKernel rejects an XDP engine with no rule program.
	ErrNoKernel = core.ErrNoKernel
	// ErrKernelUnverified rejects a rule program that failed verification.
	ErrKernelUnverified = core.ErrKernelUnverified
	// ErrBadCores rejects a core count outside the supported range.
	ErrBadCores = core.ErrBadCores
	// ErrBadBatch rejects a burst batch size outside the supported range.
	ErrBadBatch = core.ErrBadBatch
	// ErrSerialApp refuses parallel workers for a SerialApp on a
	// multi-shard engine.
	ErrSerialApp = core.ErrSerialApp
	// ErrRunning rejects Start on an already-started engine.
	ErrRunning = core.ErrRunning
	// ErrBadPanicBudget rejects a negative SupervisePolicy.PanicBudget.
	ErrBadPanicBudget = core.ErrBadPanicBudget
	// ErrBadCooldown rejects a negative SupervisePolicy.BreakerCooldown.
	ErrBadCooldown = core.ErrBadCooldown
	// ErrBadStallAfter rejects a negative SupervisePolicy.StallAfter.
	ErrBadStallAfter = core.ErrBadStallAfter
	// ErrBadRing rejects a ring capacity out of range — the engine's
	// RingSize or TraceRing.
	ErrBadRing = core.ErrBadRing
	// ErrScaleSupervise rejects combining work-stealing admission with
	// the shard stall watchdog, which does not follow a stolen stream.
	ErrScaleSupervise = core.ErrScaleSupervise
)

// Datapath modes.
const (
	ModeDPDK = core.ModeDPDK
	ModeXDP  = core.ModeXDP
)

// Circuit breaker states (EngineStats.Breaker), ordered by severity.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerHalfOpen = core.BreakerHalfOpen
	BreakerOpen     = core.BreakerOpen
)

// DefaultBreakerCooldown is the Open → Half-Open delay used when panic
// isolation is enabled without an explicit SupervisePolicy.BreakerCooldown.
const DefaultBreakerCooldown = core.DefaultBreakerCooldown

// KPIBreaker is the telemetry series name of breaker transitions.
const KPIBreaker = core.KPIBreaker

// NewEngine builds and verifies a middlebox engine.
var NewEngine = core.NewEngine

// Reference applications (§4).
type (
	// DAS is the distributed antenna system middlebox (§4.1).
	DAS = das.App
	// DASConfig configures a DAS middlebox.
	DASConfig = das.Config
	// DMIMO is the distributed MIMO middlebox (§4.2).
	DMIMO = dmimo.App
	// DMIMOConfig configures a dMIMO middlebox.
	DMIMOConfig = dmimo.Config
	// RUShare is the RU sharing middlebox (§4.3, Algorithms 2-3).
	RUShare = rushare.App
	// RUShareConfig configures an RU sharing middlebox.
	RUShareConfig = rushare.Config
	// RUShareDU describes one RU-sharing tenant.
	RUShareDU = rushare.DUInfo
	// PRBMonitor is the real-time PRB monitoring middlebox (§4.4,
	// Algorithm 1).
	PRBMonitor = prbmon.App
	// PRBMonitorConfig configures a PRB monitor.
	PRBMonitorConfig = prbmon.Config
	// Resilience is the §8.1 DU-failover middlebox.
	Resilience = resilience.App
	// ResilienceConfig configures a resilience middlebox.
	ResilienceConfig = resilience.Config
	// FHGuard is the §8.1 fronthaul security middlebox.
	FHGuard = fhguard.App
	// FHGuardConfig configures a fronthaul guard.
	FHGuardConfig = fhguard.Config
)

// Application constructors.
var (
	NewDAS        = das.New
	NewDMIMO      = dmimo.New
	NewRUShare    = rushare.New
	NewPRBMonitor = prbmon.New
	NewResilience = resilience.New
	NewFHGuard    = fhguard.New
)

// Testbed (§6.1).
type (
	// Testbed is the assembled five-floor deployment.
	Testbed = testbed.TB
	// Metro is a metro-scale scenario: hundreds of RUs over a multi-hop
	// fabric with chained middleboxes on successive switches, driven by
	// aggregate per-cell arrival processes instead of per-UE state.
	Metro = testbed.Metro
	// MetroConfig sizes a Metro (floors × cells, eAxC streams per RU,
	// chain depth, admission layout).
	MetroConfig = testbed.MetroConfig
	// MetroSinkStats is what the far end of a metro chain observed.
	MetroSinkStats = testbed.MetroSinkStats
	// MetroConservation is the frame ledger of a finished metro run;
	// its Check method verifies conservation at every hop and end to end.
	MetroConservation = testbed.ConservationReport
	// UE is a user device.
	UE = air.UE
	// CellConfig describes a cell.
	CellConfig = air.CellConfig
	// Carrier describes a carrier's spectrum position.
	Carrier = phy.Carrier
	// StackProfile models one RAN vendor's implementation.
	StackProfile = phy.StackProfile
	// Point is a 3-D testbed position.
	Point = radio.Point
)

// Scenario builders (methods on Testbed) and their options.
type (
	// DASOpts tunes Testbed.DASCell.
	DASOpts = testbed.DASOpts
	// DMIMOOpts tunes Testbed.DMIMOCell.
	DMIMOOpts = testbed.DMIMOOpts
	// MonitorOpts tunes Testbed.MonitoredCell.
	MonitorOpts = testbed.MonitorOpts
	// RUOpts tunes Testbed.AddRU.
	RUOpts = testbed.RUOpts
	// DUOpts tunes Testbed.AddDU.
	DUOpts = testbed.DUOpts
	// DASDeployment is an assembled §4.1 scenario.
	DASDeployment = testbed.DASDeployment
	// DMIMODeployment is an assembled §4.2 scenario.
	DMIMODeployment = testbed.DMIMODeployment
	// SharedRUDeployment is an assembled §4.3 scenario.
	SharedRUDeployment = testbed.SharedRUDeployment
	// MonitoredDeployment is an assembled §4.4 scenario.
	MonitoredDeployment = testbed.MonitoredDeployment
)

// Testbed constructors and helpers.
var (
	// NewTestbed builds an empty testbed for a deterministic seed.
	NewTestbed = testbed.New
	// NewMetro lays out a metro-scale chained scenario.
	NewMetro = testbed.NewMetro
	// NewCarrier positions a carrier (bandwidth MHz, center Hz).
	NewCarrier = phy.NewCarrier
	// NewCell builds a standard cell configuration.
	NewCell = testbed.CellConfig
	// Carrier100 is the default 100 MHz band-78 carrier.
	Carrier100 = testbed.Carrier100
	// RUPosition places a standard ceiling RU (floor, index 0-3).
	RUPosition = testbed.RUPosition
	// Mbps converts bits/s for reporting.
	Mbps = testbed.Mbps
	// BFP9 is the 9-bit block-floating-point compression of the testbed.
	BFP9 = testbed.BFP9
)

// Compression describes U-plane payload compression parameters.
type Compression = bfp.Params

// Vendor stacks of the paper's interoperability matrix.
var (
	StackSRSRAN    = phy.StackSRSRAN
	StackCapGemini = phy.StackCapGemini
	StackRadisys   = phy.StackRadisys
)

// Frequency planning helpers (Appendix A.1).
var (
	// AlignedDUCenterHz derives a DU center frequency whose PRB grid
	// aligns with the shared RU's (Appendix A.1.1).
	AlignedDUCenterHz = phy.AlignedDUCenterHz
	// TranslateFreqOffset converts PRACH frequency offsets between DU and
	// RU spectra (Appendix A.1.2).
	TranslateFreqOffset = phy.TranslateFreqOffset
)

// Observability (DESIGN.md §6.3): the frame-level trace collector and the
// Prometheus export surface. Enable with EngineConfig.Trace or
// Engine.EnableTracing; read merged histograms from Snapshot().Trace and
// recorded spans from Engine.TraceSpans.
type (
	// TraceSpan is one recorded frame's journey through the datapath,
	// with per-stage durations and A1-A4 action attribution.
	TraceSpan = telemetry.Span
	// TraceStage indexes a span's datapath stages (queue, decode,
	// kernel, app, total).
	TraceStage = telemetry.Stage
	// TraceAction indexes the RANBooster actions A1-A4.
	TraceAction = telemetry.Action
	// TraceStats is the merged histogram snapshot in EngineStats.Trace.
	TraceStats = telemetry.TraceStats
	// PromWriter renders metrics in the Prometheus text format.
	PromWriter = telemetry.PromWriter
)

// Observability helpers.
var (
	// NewPromWriter wraps an io.Writer for Prometheus text rendering;
	// pair with Engine.WriteMetrics.
	NewPromWriter = telemetry.NewPromWriter
	// DumpTrace writes a slot-by-slot replay of recorded spans.
	DumpTrace = telemetry.DumpTrace
	// DumpTraceStats writes a per-stage/per-action percentile table.
	DumpTraceStats = telemetry.DumpTraceStats
	// TraceQuantiles extracts (p50, p99, p99.9) from one histogram.
	TraceQuantiles = telemetry.Quantiles
)

// Experiments: regenerate the paper's tables and figures.
type ExperimentTable = experiments.Table

// Experiments maps experiment ids (table2, fig10a … fig16, costs,
// ablate-*) to their runners.
var Experiments = experiments.Registry

// ExperimentIDs lists the available experiment ids.
var ExperimentIDs = experiments.IDs
