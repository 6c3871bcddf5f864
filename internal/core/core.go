// Package core implements the RANBooster middlebox framework (§3 of the
// paper): the templated middlebox design, the four processing actions —
//
//	A1  packet redirection and drop,
//	A2  packet replication,
//	A3  packet caching,
//	A4  payload inspection and modification,
//
// — and the two datapath engines the paper evaluates: a DPDK-like
// poll-mode engine and an XDP-like engine with a restricted, verified
// in-kernel rule program plus an AF_XDP-style userspace handoff.
//
// A middlebox is an App: user code invoked per fronthaul packet with a
// Context exposing the actions. The engine owns CPU accounting (per-action
// costs charged to virtual cores), per-traffic-class latency statistics,
// a BPF-map-like counter store shared between the kernel program and
// userspace, and the telemetry/management interfaces of §3.2.
package core

import (
	"fmt"
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/cpu"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/telemetry"
)

// App is the middlebox template (§3.2.2): RANBooster initializes the
// datapath and calls Handle for every C- and U-plane packet; the handler
// realizes its logic through the Context's action methods.
//
// # Concurrency contract
//
// The engine shards its datapath by eAxC RU port: on an engine with
// Cores > 1, Handle may be invoked concurrently from multiple worker
// goroutines — but never concurrently for packets of the same RU port,
// and all Context action methods (including the A3 cache, whose keys are
// RU-port-scoped) touch only shard-local state. Therefore:
//
//   - Per-stream state keyed by eAxC / RU port needs no synchronization;
//     the sharding serializes it.
//   - Cross-stream state (global counters, maps indexed by something
//     other than the stream) must be shard-safe: use atomics, or declare
//     the App serial via SerialApp and forgo parallel workers.
//   - Control is a management-plane call from outside the workers; an App
//     that mutates Handle-visible state there must synchronize it.
type App interface {
	// Name identifies the middlebox in telemetry and logs.
	Name() string
	// Handle processes one packet. The packet belongs to the handler
	// until Handle returns: it may be forwarded, cached, mutated,
	// replicated or dropped — not kept elsewhere past Handle. The same
	// goes for every packet the handler obtains from ctx (replicas,
	// rebuilds, what TakeCached returned): the engine recycles them once
	// Handle has returned, unless the A3 cache holds them. Returning an
	// error drops the packet and counts a processing failure.
	Handle(ctx *Context, pkt *fh.Packet) error
}

// SerialApp marks an App whose Handle keeps cross-stream mutable state
// that is not shard-safe. The engine still shards such an App's traffic
// deterministically (inline processing is single-threaded regardless),
// but Start refuses to launch parallel workers over more than one shard.
type SerialApp interface {
	App
	// Serial is a marker; it has no behavior.
	Serial()
}

// Controllable is the optional management interface of a middlebox
// (§3.2: "expose monitoring and management interfaces to modify their
// behavior on-the-fly").
type Controllable interface {
	Control(cmd string, args map[string]string) error
}

// Context carries one packet's processing state: the action API, cost
// accounting, and access to the owning shard's cache, counters and the
// engine telemetry. A Context is valid only for the duration of the
// Handle call it was passed to.
type Context struct {
	w     *worker
	now   sim.Time
	cost  time.Duration
	emits []*fh.Packet
	// actions / actCost attribute the handler's charged cost to the four
	// processing actions for the trace collector (bitmask of
	// 1<<telemetry.Action; maintained only while tracing is on).
	actions uint8
	actCost [telemetry.NumActions]time.Duration
}

// noteAction charges d and, when the trace collector is on, attributes it
// to action a in the packet's span.
func (c *Context) noteAction(a telemetry.Action, d time.Duration) {
	c.cost += d
	if c.w.sh.tracer != nil {
		c.actions |= 1 << a
		c.actCost[a] += d
	}
}

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.now }

// AddCost charges extra processing time beyond the built-in action costs
// (apps with unusual per-packet logic can model it explicitly).
func (c *Context) AddCost(d time.Duration) { c.cost += d }

// Forward queues the packet for transmission as currently addressed (A1).
func (c *Context) Forward(pkt *fh.Packet) {
	c.noteAction(telemetry.ActionRedirect, cpu.CostForward)
	c.emits = append(c.emits, pkt)
}

// Redirect rewrites the packet's addressing and forwards it (A1). vlan < 0
// keeps the current VLAN.
func (c *Context) Redirect(pkt *fh.Packet, dst, src eth.MAC, vlan int) error {
	if err := pkt.Redirect(dst, src, vlan); err != nil {
		return err
	}
	c.Forward(pkt)
	return nil
}

// Drop discards the packet (A1).
func (c *Context) Drop(pkt *fh.Packet) {
	c.noteAction(telemetry.ActionRedirect, cpu.CostDrop)
	c.w.sh.stats.appDrops.Add(1)
}

// Replicate clones the packet (A2). The clone is independent: it can be
// re-addressed and forwarded separately. It is the worker pool's, valid
// like pkt itself until Handle returns unless it is cached.
func (c *Context) Replicate(pkt *fh.Packet) *fh.Packet {
	c.noteAction(telemetry.ActionReplicate, cpu.CostReplicate)
	cp := c.w.pool.Clone(pkt)
	c.w.track(cp)
	return cp
}

// Rebuild re-serializes pkt around a new O-RAN message (the second half of
// A4, see fh.Pool.Rebuild) into a packet of the worker pool's with the
// lifetime of a replica. It charges nothing: the caller charges the
// modification it made (ChargeHeaderMod, ChargeMerge, ...).
func (c *Context) Rebuild(pkt *fh.Packet, encode func(b []byte) []byte) *fh.Packet {
	out := c.w.pool.Rebuild(pkt, encode)
	c.w.track(out)
	return out
}

// Cache stores the packet under key for later combination (A3). The
// store is shard-local: a key is only ever visible to the shard owning
// its eAxC RU port, which is exactly the shard the key's packets arrive
// on.
func (c *Context) Cache(key fh.Key, pkt *fh.Packet) {
	c.noteAction(telemetry.ActionCache, cpu.CostCacheInsert)
	c.w.cache.Put(key, pkt, c.now)
}

// Cached returns the packets stored under key without removing them (A3).
// The slice is the entry's own: it is valid until the next Cache or
// TakeCached of that key.
func (c *Context) Cached(key fh.Key) []*fh.Packet {
	return c.w.cache.Peek(key)
}

// CachedCount returns how many packets are stored under key.
func (c *Context) CachedCount(key fh.Key) int { return len(c.w.cache.Peek(key)) }

// TakeCached removes and returns the packets stored under key (A3). The
// slice and the packets are valid until Handle returns; a packet that is to
// wait longer goes back in with Cache.
func (c *Context) TakeCached(key fh.Key) []*fh.Packet {
	c.noteAction(telemetry.ActionCache, cpu.CostCacheTake)
	pkts := c.w.cache.Take(key)
	for _, p := range pkts {
		c.w.track(p)
	}
	return pkts
}

// ModifyUPlane decodes the packet's U-plane message, applies fn, and
// returns a re-encoded packet with the original addressing (A4); pkt is
// left as it was. The header-level cost is charged here; fn must charge
// IQ-level work through ChargeMerge / ChargeCopy / ChargeRecompress as it
// performs it. msg is the worker's scratch, valid only inside fn.
func (c *Context) ModifyUPlane(pkt *fh.Packet, carrierPRBs int, fn func(msg *oran.UPlaneMsg) error) (*fh.Packet, error) {
	c.noteAction(telemetry.ActionModify, cpu.CostHeaderMod)
	msg := &c.w.modU
	if err := pkt.UPlane(msg, carrierPRBs); err != nil {
		return nil, err
	}
	if err := fn(msg); err != nil {
		return nil, err
	}
	return c.Rebuild(pkt, msg.AppendTo), nil
}

// ModifyCPlane is ModifyUPlane for C-plane messages (A4).
func (c *Context) ModifyCPlane(pkt *fh.Packet, carrierPRBs int, fn func(msg *oran.CPlaneMsg) error) (*fh.Packet, error) {
	c.noteAction(telemetry.ActionModify, cpu.CostHeaderMod)
	msg := &c.w.modC
	if err := pkt.CPlane(msg, carrierPRBs); err != nil {
		return nil, err
	}
	if err := fn(msg); err != nil {
		return nil, err
	}
	return c.Rebuild(pkt, msg.AppendTo), nil
}

// Transcoder returns the shard's pooled BFP transcode scratch (A4): a
// payload arena, the one-pass merge's source list and an exponent buffer,
// pre-sized to the carrier and reused for every frame the shard processes.
// Apps running the decode → modify → re-encode cycle should call Reset once
// per Handle and draw all working buffers from it — in steady state the
// cycle then performs zero allocations. The scratch is shard-local: frames of one eAxC stream
// always land on the same shard, so no synchronization is needed.
func (c *Context) Transcoder() *bfp.Transcoder { return c.w.txc }

// UPlaneScratch returns one of the shard's two reusable U-plane message
// slots (decoding into a reused message recycles its section slice).
// Conventionally slot 0 is the decode scratch and slot 1 the re-encode
// staging message. Like the Transcoder, the slots are valid only within
// the current Handle call and must not be retained.
func (c *Context) UPlaneScratch(slot int) *oran.UPlaneMsg { return &c.w.msgs[slot] }

// ChargeHeaderMod charges one in-place header-field modification (A4).
func (c *Context) ChargeHeaderMod() { c.noteAction(telemetry.ActionModify, cpu.CostHeaderMod) }

// ChargeMerge charges an IQ merge of nStreams compressed streams of nPRB
// PRBs (A4) — the DAS uplink combination.
func (c *Context) ChargeMerge(nPRB, nStreams int) {
	c.noteAction(telemetry.ActionModify, cpu.MergeCost(nPRB, nStreams))
}

// ChargeCopyAligned charges relocation of nPRB compressed PRBs without
// recompression (the RU-sharing aligned fast path).
func (c *Context) ChargeCopyAligned(nPRB int) {
	c.noteAction(telemetry.ActionModify, cpu.AlignedCopyCost(nPRB))
}

// ChargeRecompress charges relocation of nPRB PRBs through the misaligned
// decompress/copy/recompress path.
func (c *Context) ChargeRecompress(nPRB int) {
	c.noteAction(telemetry.ActionModify, cpu.RecompressCopyCost(nPRB))
}

// ChargeExponentScan charges Algorithm 1's per-PRB exponent inspection.
func (c *Context) ChargeExponentScan(nPRB int) {
	c.noteAction(telemetry.ActionModify, cpu.ExponentScanCost(nPRB))
}

// PacketError reports a per-packet processing failure from inside a
// BurstApp's HandleBurst without failing the rest of the burst: the
// packet is counted in Stats.AppErrors and simply not forwarded (do not
// Forward it afterwards). Returning an error from HandleBurst instead
// drops the entire burst; returning an error from a per-frame Handle
// keeps its one-packet meaning.
func (c *Context) PacketError(pkt *fh.Packet, err error) {
	c.w.sh.stats.appErrors.Add(1)
}

// Publish emits a telemetry sample on the middlebox's bus.
func (c *Context) Publish(name string, value float64) {
	c.w.eng.bus.Publish(telemetry.Sample{Name: name, At: c.now, Value: value})
}

// AddCounter increments the named shared counter (the userspace view of
// the kernel program's per-CPU maps) by delta, on this shard's stripe.
func (c *Context) AddCounter(name string, delta uint64) {
	c.w.counter(name).Add(c.w.sh.id, delta)
}

// CounterValue returns the merged value of the named shared counter.
func (c *Context) CounterValue(name string) uint64 {
	return c.w.counter(name).Value()
}

// TrafficClass buckets packets for the latency statistics of Fig. 15b.
type TrafficClass uint8

// Traffic classes.
const (
	ClassDLC TrafficClass = iota
	ClassDLU
	ClassULC
	ClassULU
	classCount
)

// String names the class as the paper's figure does.
func (t TrafficClass) String() string {
	switch t {
	case ClassDLC:
		return "DL C-Plane"
	case ClassDLU:
		return "DL U-Plane"
	case ClassULC:
		return "UL C-Plane"
	case ClassULU:
		return "UL U-Plane"
	}
	return fmt.Sprintf("class(%d)", uint8(t))
}

// Classify buckets a packet by plane and direction.
func Classify(pkt *fh.Packet) TrafficClass {
	t, err := pkt.Timing()
	dl := err == nil && t.Direction == oran.Downlink
	if pkt.Plane() == fh.PlaneC {
		if dl {
			return ClassDLC
		}
		return ClassULC
	}
	if dl {
		return ClassDLU
	}
	return ClassULU
}
