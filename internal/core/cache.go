package core

import (
	"time"

	"ranbooster/internal/fh"
	"ranbooster/internal/sim"
)

// Cache is the A3 packet store: packets keyed by (symbol, eAxC, direction)
// awaiting combination with packets that arrive later or from different
// sources. Entries that are never taken (e.g. a DU that went quiet in the
// RU-sharing scenario) are swept once they exceed MaxAge, so a stalled
// peer cannot leak memory.
type Cache struct {
	// MaxAge bounds how long an entry may wait; symbol-scoped state is
	// stale after a couple of slots.
	MaxAge time.Duration

	entries map[fh.Key]*cacheEntry
	// order is the insertion-order sweep queue: entry stamps are
	// monotone in a run, so expired entries form a prefix and Sweep
	// scans exactly that prefix — never the map, whose iteration order
	// is randomized per process and would make seeded replays diverge.
	// A record whose key was Taken (or re-inserted) in the meantime is
	// recognized by its stale stamp and skipped.
	order []sweepRecord
	swept uint64
	// free holds recycled entries, each with its pkts backing array; taken
	// holds the entries Take removed since the last reclaim, whose pkts the
	// caller may still be reading.
	free, taken []*cacheEntry
}

// cacheFreeEntries bounds the free list; entries released beyond it are
// the collector's.
const cacheFreeEntries = 256

// Ownership marks the engine keeps in fh.Packet.Mark (see DESIGN.md §6.10).
const (
	// markLive: on the worker's live list, released when the App
	// invocation in flight ends.
	markLive uint8 = 1 << iota
	// markCached: held by an A3 entry; whoever empties the entry releases.
	markCached
	// markPinned: cached under a second key while still under the first —
	// one mark cannot count two holders, so the packet is never recycled.
	markPinned
	// markEmitted: already seen in the emit list being handed to egress.
	markEmitted
)

type cacheEntry struct {
	pkts     []*fh.Packet
	inserted sim.Time
}

// sweepRecord is one insertion event in the sweep queue.
type sweepRecord struct {
	key      fh.Key
	inserted sim.Time
}

// NewCache returns an empty cache with the given entry lifetime.
func NewCache(maxAge time.Duration) *Cache {
	return &Cache{MaxAge: maxAge, entries: make(map[fh.Key]*cacheEntry)}
}

// Put appends a packet under key.
func (c *Cache) Put(key fh.Key, pkt *fh.Packet, now sim.Time) {
	e := c.entries[key]
	if e == nil {
		if n := len(c.free); n > 0 {
			e = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			//ranvet:allow alloc heap fallback of the entry free list: entries come back on Take and Sweep
			e = &cacheEntry{}
		}
		e.inserted = now
		c.entries[key] = e
		c.order = append(c.order, sweepRecord{key: key, inserted: now})
	}
	if pkt.Mark&markCached != 0 {
		pkt.Mark |= markPinned
	}
	pkt.Mark |= markCached
	//ranvet:allow alloc grows a recycled entry's backing array to the key's packet count, then never again
	e.pkts = append(e.pkts, pkt)
}

// recycle empties an entry that left the map onto the free list.
func (c *Cache) recycle(e *cacheEntry) {
	clear(e.pkts)
	e.pkts = e.pkts[:0]
	if len(c.free) < cacheFreeEntries {
		c.free = append(c.free, e)
	}
}

// reclaim recycles the entries Take removed: the slices it returned are
// dead from here on. The engine calls it when an App invocation ends;
// Sweep does too, for callers that have no invocations.
func (c *Cache) reclaim() {
	for i, e := range c.taken {
		c.recycle(e)
		c.taken[i] = nil
	}
	c.taken = c.taken[:0]
}

// Peek returns the packets under key without removing them. The returned
// slice must not be retained across further cache operations.
func (c *Cache) Peek(key fh.Key) []*fh.Packet {
	if e := c.entries[key]; e != nil {
		return e.pkts
	}
	return nil
}

// Take removes and returns the packets under key. The returned slice is
// valid until the next Sweep (inside the engine: until the App invocation
// that took it ends).
func (c *Cache) Take(key fh.Key) []*fh.Packet {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	delete(c.entries, key)
	for _, p := range e.pkts {
		p.Mark &^= markCached
	}
	c.taken = append(c.taken, e)
	return e.pkts
}

// Sweep drops entries older than MaxAge and reports how many packets were
// discarded. It walks the insertion-order queue, not the map, so the scan
// touches only the expired prefix and runs identically under a fixed
// seed: map iteration here would randomize nothing observable today, but
// any future per-entry effect (an eviction callback, an early exit)
// would silently start replaying differently.
func (c *Cache) Sweep(now sim.Time) int { return c.sweep(now, nil) }

// sweep is Sweep releasing the discarded packets into pool (nil: to the
// collector).
func (c *Cache) sweep(now sim.Time, pool *fh.Pool) int {
	c.reclaim()
	dropped := 0
	i := 0
	for ; i < len(c.order); i++ {
		rec := c.order[i]
		if now.Sub(rec.inserted) <= c.MaxAge {
			break // stamps are monotone: everything after is fresher
		}
		e := c.entries[rec.key]
		if e == nil || e.inserted != rec.inserted {
			continue // taken, or re-created since this record was queued
		}
		dropped += len(e.pkts)
		delete(c.entries, rec.key)
		for _, p := range e.pkts {
			if p.Mark &^= markCached; p.Mark&(markPinned|markLive) == 0 {
				pool.Put(p)
			}
		}
		c.recycle(e)
	}
	if i > 0 {
		c.order = c.order[:copy(c.order, c.order[i:])]
	}
	c.swept += uint64(dropped)
	return dropped
}

// Len reports the number of live keys.
func (c *Cache) Len() int { return len(c.entries) }

// Swept reports the total packets discarded by sweeps.
func (c *Cache) Swept() uint64 { return c.swept }
