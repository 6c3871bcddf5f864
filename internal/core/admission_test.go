package core

import (
	"fmt"
	"testing"

	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
)

// TestAdmissionLedger is the admission contract of both layouts through
// the public entry points: the chaos experiment's offered mix (6/8 U-plane
// data, 1/8 PRACH, 1/8 C-plane, one eAxC) is offered to a queue nobody
// drains until well past full. Ingress gives up frames by class as the
// free slots run out — data inside the last 1/8 of the queue, PRACH
// inside the last 1/16, C-plane only when no slot is left — and accounts
// every refusal under its class; TryIngress refuses only on a full queue
// and counts nothing. Either way the ledger closes on the queue's home
// shard: offered = rx + shed + dropped.
func TestAdmissionLedger(t *testing.T) {
	// The per-stream queue of the work-stealing layout has this capacity
	// too, so one expectation serves both layouts.
	const ring = 256
	const (
		data = iota
		prach
		cplane
	)
	// reserve[class] is how many free slots the class may not take.
	reserve := [...]int{data: ring / 8, prach: ring / 16, cplane: 0}

	for _, ws := range []bool{false, true} {
		for _, try := range []bool{false, true} {
			layout, entry := "hash", "Ingress"
			if ws {
				layout = "worksteal"
			}
			if try {
				entry = "TryIngress"
			}
			t.Run(fmt.Sprintf("%s/%s", layout, entry), func(t *testing.T) {
				s := sim.NewScheduler()
				e, err := NewEngine(s, Config{Name: "mb", Mode: ModeDPDK, App: &forwarder{}, CarrierPRBs: 106,
					Cores: 2, RingSize: ring, Scale: ScalePolicy{WorkSteal: ws}})
				if err != nil {
					t.Fatal(err)
				}
				e.SetOutput(func([]byte) {})
				// Parked: parallel mode with no workers, so admitted frames
				// accumulate instead of draining inline.
				e.parallel = true
				defer func() { e.parallel = false }()

				b := fh.NewBuilder(duMAC, ruMAC, 6)
				frames := [...][]byte{
					data:   uplaneFrame(t, b, oran.Uplink, 1, 1, 10),
					prach:  prachFrame(t, b, 1),
					cplane: cplaneFrame(t, b, oran.Downlink, 1),
				}
				q := e.route(frames[data])
				home := q.home

				const offered = 2 * ring
				queued := 0
				var want Stats // the refusals Ingress must have counted
				for i := 0; i < offered; i++ {
					class := data
					switch i % 8 {
					case 3:
						class = prach
					case 7:
						class = cplane
					}
					free := ring - queued
					admit := free > reserve[class]
					if try {
						admit = free > 0
					}
					switch {
					case admit:
						queued++
					case try:
					case free == 0 && class == cplane:
						want.RingDrops++
					case class == prach:
						want.ShedPRACH++
					default:
						want.ShedUPlane++
					}
					if try {
						if got := e.TryIngress(frames[class]); got != admit {
							t.Fatalf("offer %d (class %d, %d free): TryIngress = %v, want %v", i, class, free, got, admit)
						}
						continue
					}
					before := e.Snapshot()
					e.Ingress(frames[class])
					after := e.Snapshot()
					refused := after.ShedUPlane + after.ShedPRACH + after.RingDrops -
						(before.ShedUPlane + before.ShedPRACH + before.RingDrops)
					if refused > 1 || (refused == 0) != admit {
						t.Fatalf("offer %d (class %d, %d free): %d refusals counted, admit want %v", i, class, free, refused, admit)
					}
				}
				if queued != ring {
					t.Fatalf("queue holds %d of %d after %d offers: the mix never filled it", queued, ring, offered)
				}
				st := e.Snapshot()
				if st.RxFrames != 0 {
					t.Fatalf("parked engine processed %d frames", st.RxFrames)
				}
				if try && st.ShedUPlane+st.ShedPRACH+st.RingDrops != 0 {
					t.Fatalf("TryIngress counted refusals: %+v", st)
				}
				if !try && (st.ShedUPlane != want.ShedUPlane || st.ShedPRACH != want.ShedPRACH ||
					st.RingDrops != want.RingDrops || want.ShedPRACH == 0 || want.RingDrops == 0) {
					t.Fatalf("refusals: shed %d data + %d PRACH, dropped %d; want %d + %d (> 0), %d (> 0)",
						st.ShedUPlane, st.ShedPRACH, st.RingDrops, want.ShedUPlane, want.ShedPRACH, want.RingDrops)
				}

				home.w.drainStream(q, ring)
				s.Run()
				st = e.Snapshot()
				accounted := st.RxFrames + st.ShedUPlane + st.ShedPRACH + st.RingDrops
				if st.RxFrames != ring || (!try && accounted != offered) {
					t.Fatalf("ledger: rx %d + shed %d/%d + dropped %d = %d, want rx %d of %d offered",
						st.RxFrames, st.ShedUPlane, st.ShedPRACH, st.RingDrops, accounted, ring, offered)
				}
				hs := home.stats.snapshot()
				if hs.RxFrames != st.RxFrames || hs.ShedUPlane != st.ShedUPlane ||
					hs.ShedPRACH != st.ShedPRACH || hs.RingDrops != st.RingDrops {
					t.Fatalf("ledger is not all on home shard %d: home %+v, engine %+v", home.id, hs, st)
				}
			})
		}
	}
}
