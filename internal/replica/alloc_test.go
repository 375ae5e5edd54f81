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
// payload buffers, frames, the retained window, the fabric's in-flight
// delivery records and the standbys' acks all pooled, a full
// ship→frame→apply→ack→truncate round of 64 records allocates nothing (it
// measures 0; the bound leaves one allocation per round for slice growth).
// The path this replaced copied every payload per Ship, reallocated the
// retained window per ack round, and paid a closure and a message per
// frame and an interface box per ack: 10 allocations per round.
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
	if lag := h.sh.next - 1 - h.sh.minAck(); lag != 0 || len(h.sh.retained) != 0 {
		t.Fatalf("pipeline not settling between steps: lag %d, %d retained", lag, len(h.sh.retained))
	}
	start := n
	allocs := testing.AllocsPerRun(50, step)
	if n-start != 51*batch { // warmup call + 50 measured
		t.Fatalf("expected %d records during measurement, got %d", 51*batch, n-start)
	}
	limit := 1.0
	if netsim.Checked {
		limit += 2 // a released ack is quarantined, not recycled: one per standby per round
	}
	if allocs > limit {
		t.Fatalf("steady-state shipping allocates %.1f per %d-record step (%.3f per record), want <= %.0f",
			allocs, batch, allocs/batch, limit)
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
