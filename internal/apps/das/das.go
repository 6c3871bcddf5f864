// Package das implements the Distributed Antenna System middlebox of
// §4.1: one cell's signal replicated across many RUs.
//
// Downlink: every C- and U-plane packet from the DU is replicated to all
// DAS RUs (actions A1+A2). Uplink: the U-plane packets of all RUs for the
// same (symbol, antenna port) are cached (A3) and their IQ samples summed
// element-wise on a per-subcarrier basis — decompressing and
// re-compressing around the merge (A4) — before a single combined packet
// is forwarded to the DU (A1).
package das

import (
	"fmt"
	"sync/atomic"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
)

// Config describes one DAS middlebox.
type Config struct {
	Name string
	// MAC is the middlebox's own address (the DU's "RU" and every RU's
	// "DU").
	MAC eth.MAC
	// DU is the upstream cell.
	DU eth.MAC
	// RUs are the distribution points.
	RUs []eth.MAC
	// CarrierPRBs resolves section encodings.
	CarrierPRBs int
}

// App is the DAS middlebox.
type App struct {
	cfg Config
	rus map[eth.MAC]bool

	// Merges counts completed uplink combinations (for tests/telemetry).
	// An atomic type so that readers racing parallel engine workers
	// cannot accidentally use a plain load.
	Merges atomic.Uint64
}

// New builds the middlebox.
func New(cfg Config) *App {
	a := &App{cfg: cfg, rus: make(map[eth.MAC]bool, len(cfg.RUs))}
	for _, m := range cfg.RUs {
		a.rus[m] = true
	}
	return a
}

// Name implements core.App.
func (a *App) Name() string { return a.cfg.Name }

// Control implements the management interface: RUs can be added or
// removed on-the-fly ("add-ru" / "remove-ru" with arg "mac").
func (a *App) Control(cmd string, args map[string]string) error {
	mac, err := eth.ParseMAC(args["mac"])
	if err != nil {
		return err
	}
	switch cmd {
	case "add-ru":
		if !a.rus[mac] {
			a.rus[mac] = true
			a.cfg.RUs = append(a.cfg.RUs, mac)
		}
		return nil
	case "remove-ru":
		if a.rus[mac] {
			delete(a.rus, mac)
			for i, m := range a.cfg.RUs {
				if m == mac {
					a.cfg.RUs = append(a.cfg.RUs[:i], a.cfg.RUs[i+1:]...)
					break
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("das: unknown command %q", cmd)
	}
}

// Handle implements core.App.
//
//ranvet:hotpath
//ranvet:detpath
func (a *App) Handle(ctx *core.Context, pkt *fh.Packet) error {
	switch {
	case pkt.Eth.Src == a.cfg.DU:
		return a.handleDownstream(ctx, pkt)
	case a.rus[pkt.Eth.Src]:
		return a.handleUpstream(ctx, pkt)
	default:
		ctx.Drop(pkt)
		return nil
	}
}

// HandleBurst implements core.BurstApp: each packet of the burst runs the
// per-frame logic, with per-packet failures isolated through
// Context.PacketError — a merge that fails for one symbol (layout
// mismatch on a lossy fronthaul) must not discard the rest of the burst.
//
//ranvet:hotpath
//ranvet:detpath
func (a *App) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	for _, pkt := range pkts {
		if err := a.Handle(ctx, pkt); err != nil {
			ctx.PacketError(pkt, err)
		}
	}
	return nil
}

// handleDownstream replicates DU traffic to every RU (A1+A2).
func (a *App) handleDownstream(ctx *core.Context, pkt *fh.Packet) error {
	if len(a.cfg.RUs) == 0 {
		// Every RU was removed through Control: nowhere to send.
		ctx.Drop(pkt)
		return nil
	}
	for _, ruMAC := range a.cfg.RUs[1:] {
		cp := ctx.Replicate(pkt)
		if err := ctx.Redirect(cp, ruMAC, a.cfg.MAC, -1); err != nil {
			return err
		}
	}
	return ctx.Redirect(pkt, a.cfg.RUs[0], a.cfg.MAC, -1)
}

// handleUpstream caches RU uplink and merges once every RU reported (A3+A4).
func (a *App) handleUpstream(ctx *core.Context, pkt *fh.Packet) error {
	key, err := fh.KeyOf(pkt)
	if err != nil {
		return err
	}
	ctx.Cache(key, pkt)
	if ctx.CachedCount(key) < len(a.cfg.RUs) {
		return nil
	}
	pkts := ctx.TakeCached(key)
	merged, err := a.merge(ctx, pkts)
	if err != nil {
		return err
	}
	a.Merges.Add(1)
	return ctx.Redirect(merged, a.cfg.DU, a.cfg.MAC, -1)
}

// merge sums the IQ payloads of packets (one per RU, same symbol and
// port) on a per-subcarrier basis, returning a rebuilt packet. The inputs
// must share a section layout, which they do by construction: each RU
// answered the same replicated C-plane request.
//
// Nothing is decoded into a grid: every packet's sections are lined up as
// compressed sources and the Transcoder's one-pass MergeGrid decodes, sums
// and re-encodes them a PRB at a time, whatever mix of compression
// parameters the RUs answered with. The source list, the re-encoded
// payloads and both U-plane messages come from the shard's pooled scratch
// and the output frame from the worker's frame pool, so a steady-state
// merge performs zero allocations (ctx.Rebuild copies the payloads out
// into the output frame, so nothing from the arena outlives the Handle
// call; the cached packets and the output are recycled after it).
func (a *App) merge(ctx *core.Context, pkts []*fh.Packet) (*fh.Packet, error) {
	tx := ctx.Transcoder()
	tx.Reset()
	base := pkts[0]
	baseMsg := ctx.UPlaneScratch(0)
	if err := base.UPlane(baseMsg, a.cfg.CarrierPRBs); err != nil {
		return nil, err
	}
	// Section i's sources, one per packet in arrival order, are
	// srcs[i*k:(i+1)*k]. Payloads alias the cached packets' frames.
	nSec, k := len(baseMsg.Sections), len(pkts)
	srcs := tx.Sections(nSec * k)
	for i := range baseMsg.Sections {
		s := &baseMsg.Sections[i]
		srcs[i*k] = bfp.Section{Payload: s.Payload, Comp: s.Comp}
	}
	msg := ctx.UPlaneScratch(1)
	for j, p := range pkts[1:] {
		if err := p.UPlane(msg, a.cfg.CarrierPRBs); err != nil {
			return nil, err
		}
		if len(msg.Sections) != nSec {
			//ranvet:allow alloc error path: layout mismatch only on a desynchronized lossy fronthaul
			return nil, fmt.Errorf("das: section layout mismatch (%d vs %d)", len(msg.Sections), nSec)
		}
		for i := range msg.Sections {
			s := &msg.Sections[i]
			// On a lossy fronthaul the RUs can answer *different* C-plane
			// requests in the same symbol (a dropped request desynchronizes
			// the replication), so the shared-layout construction argument
			// no longer holds; a width mismatch must fail the merge, not
			// corrupt it.
			if s.NumPRB != baseMsg.Sections[i].NumPRB {
				//ranvet:allow alloc error path: width mismatch only on a desynchronized lossy fronthaul
				return nil, fmt.Errorf("das: section %d width mismatch (%d vs %d PRBs)",
					i, s.NumPRB, baseMsg.Sections[i].NumPRB)
			}
			srcs[i*k+j+1] = bfp.Section{Payload: s.Payload, Comp: s.Comp}
		}
	}
	// Merge each section into the base packet's layout and compression,
	// payloads in the arena.
	totalPRB := 0
	for i := range baseMsg.Sections {
		s := &baseMsg.Sections[i]
		payload, err := tx.MergeGrid(srcs[i*k:(i+1)*k], s.NumPRB, s.Comp)
		if err != nil {
			return nil, err
		}
		s.Payload = payload
		totalPRB += s.NumPRB
	}
	ctx.ChargeMerge(totalPRB, k)
	return ctx.Rebuild(base, baseMsg.AppendTo), nil
}
