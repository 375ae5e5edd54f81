//go:build !race

// Allocation-regression pin for the frame-batched ship/ack fast path.
// Exact malloc counts change under the race detector, so this only runs
// without -race.

package replica

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestShipSteadyStateAllocBound pins the steady-state shipping cycle: with
// payload buffers, frames, and the retained window all pooled, a full
// ship→frame→apply→ack→truncate round must amortise to well under one
// allocation per record. The residue is per-frame fabric scheduling and
// occasional slice growth, not per-record copies — which is the difference
// between this path and the one it replaced (a fresh payload copy per
// record per Ship, plus a retained-window reallocation per ack round).
func TestShipSteadyStateAllocBound(t *testing.T) {
	const batch = 64 // exactly MaxFrameRecords: each step is one frame per link
	h := newHarness(t, 11, 2, netsim.LinkConfig{}, Config{})
	kick := h.s.NewSignal("kick")
	data := make([]byte, 512)
	n := 0
	h.s.Spawn(nil, "w", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			kick.Wait(p)
			for i := 0; i < batch; i++ {
				h.sh.Ship(int64(n%1024)*8, data)
				n++
			}
		}
	})
	step := func() {
		kick.Broadcast()
		// Long enough for frame delivery, standby apply, the coalesced
		// acks, and truncation to retire the batch back into the pools.
		if err := h.s.RunFor(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm pools, inboxes, and slice capacities
		step()
	}
	if h.sh.Lag() != 0 || len(h.sh.retained) != 0 {
		t.Fatalf("pipeline not settling between steps: lag %d, %d retained", h.sh.Lag(), len(h.sh.retained))
	}
	start := n
	allocs := testing.AllocsPerRun(50, step)
	if n-start != 51*batch { // warmup call + 50 measured
		t.Fatalf("expected %d records during measurement, got %d", 51*batch, n-start)
	}
	perRec := allocs / batch
	if perRec > 0.5 {
		t.Fatalf("steady-state shipping allocates %.3f per record (%.1f per %d-record step), want <= 0.5",
			perRec, allocs, batch)
	}
}

// TestQuorumSeqAllocFree pins QuorumSeq, which every ack and every quorum
// wake evaluates, at zero allocations for every k — and at the k-th largest
// ack, ties included.
func TestQuorumSeqAllocFree(t *testing.T) {
	h := newHarness(t, 11, 4, netsim.LinkConfig{}, Config{})
	t.Cleanup(h.s.Close)
	for i, ack := range []uint64{7, 3, 9, 7} {
		h.sh.reps[i].ack = ack
	}
	for k, want := range []uint64{9, 7, 7, 3} {
		var got uint64
		if allocs := testing.AllocsPerRun(100, func() { got = h.sh.QuorumSeq(k + 1) }); allocs != 0 {
			t.Fatalf("QuorumSeq(%d) allocates %.1f times, want 0", k+1, allocs)
		}
		if got != want {
			t.Fatalf("QuorumSeq(%d) = %d, want %d", k+1, got, want)
		}
	}
}
