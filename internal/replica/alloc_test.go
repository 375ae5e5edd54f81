//go:build !race

// Allocation-regression pin for the frame-batched ship/ack fast path.
// Exact malloc counts change under the race detector, so this only runs
// without -race.

package replica

import (
	"bytes"
	"fmt"
	"runtime"
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

// TestStandbysShareShippedPayloads: two standbys take one shipper's stream
// from a WAL-like writer that forces each tail block in place a few times
// before moving on. Each store's live records are the last-shipped bytes of
// every extent, and the two stores' copies of one record are one backing
// array — the shipper's pooled buffer, referenced rather than copied. That
// holds over a lossy, duplicating, reordering link too. On a clean one,
// whose pools settle, the N new extents both stores end up holding cost at
// most N/32 + c allocations between them: buffers are carved from chunks,
// and the stores copy nothing. The lossy link's repair bursts grow the
// frame and delivery pools by what its seed decides — the same count every
// run of these seeds, 417 for N = 1048 — and its bound is that plus 10 %
// (new frames whose records grow by doubling read 669).
func TestStandbysShareShippedPayloads(t *testing.T) {
	const n = 2048 // extents
	for _, tc := range []struct {
		name  string
		link  netsim.LinkConfig
		limit func(measured int) uint64 // allocations for the measured extents
	}{
		{"lossy", netsim.LinkConfig{DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}, func(int) uint64 { return 460 }},
		{"clean", netsim.LinkConfig{}, func(m int) uint64 { return uint64(m/32 + 32) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const blkSec = 4 // sectors per extent
			s := sim.New(21)
			fab := netsim.New(s, netsim.Config{Seed: 22, Link: tc.link})
			var sts []*Standby
			for i := 0; i < 2; i++ {
				sts = append(sts, NewStandby(s, fab, fmt.Sprintf("standby%d", i), Config{}))
			}
			sh := NewShipper(s, fab, nil, 1, []string{"standby0", "standby1"}, Config{})
			// Block b is forced 1 + b%3 times; fill writes version v of it.
			fill := func(d []byte, b, v int) {
				for k := range d {
					d[k] = byte(b*7 + v*13 + k)
				}
			}
			data := make([]byte, blkSec*512)
			shipped, blocks := 0, 0
			s.Spawn(nil, "writer", func(p *sim.Proc) {
				for ; blocks < n; blocks++ {
					for v := 0; v <= blocks%3; v++ {
						fill(data, blocks, v)
						sh.Ship(int64(blocks*blkSec), data)
						shipped++
						p.Sleep(50 * time.Microsecond)
					}
				}
			})
			// The first half warms the pools; the second half's new extents
			// are what the bound counts.
			if err := s.RunFor(100 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			measured := n - blocks
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := s.RunFor(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)

			want := make(map[int64][]byte) // lba → the bytes last shipped there
			for b := 0; b < n; b++ {
				want[int64(b*blkSec)] = make([]byte, blkSec*512)
				fill(want[int64(b*blkSec)], b, b%3)
			}
			bySeq := make(map[uint64][]byte)
			for i, st := range sts {
				if got := st.AppliedSeq(1); got != uint64(shipped) {
					t.Fatalf("%s applied %d of %d records", st.Name(), got, shipped)
				}
				recs := st.Records()
				if len(recs) != len(want) {
					t.Fatalf("%s holds %d live records for %d extents", st.Name(), len(recs), len(want))
				}
				for _, r := range recs {
					if !bytes.Equal(r.Data, want[r.Lba]) {
						t.Fatalf("%s: e%d seq %d at lba %d is not the last-shipped version", st.Name(), r.Epoch, r.Seq, r.Lba)
					}
					if i == 0 {
						bySeq[r.Seq] = r.Data
						continue
					}
					other, ok := bySeq[r.Seq]
					if !ok {
						t.Fatalf("%s holds seq %d, which %s retired", st.Name(), r.Seq, sts[0].Name())
					}
					if &other[0] != &r.Data[0] {
						t.Fatalf("the two stores hold seq %d in two copies", r.Seq)
					}
				}
			}
			if tc.link.DropProb > 0 && sh.resends.Value() == 0 {
				t.Fatal("the lossy link needed no retransmission: it tested nothing")
			}
			if netsim.Checked {
				return // released buffers are quarantined, not recycled
			}
			allocs := m1.Mallocs - m0.Mallocs
			if limit := tc.limit(measured); allocs > limit {
				t.Fatalf("%d new extents held by two stores took %d allocations, want <= %d", measured, allocs, limit)
			}
			t.Logf("%d new extents: %d allocations", measured, allocs)
		})
	}
}
