//go:build !race

// Allocation-regression pins for the WAL commit path. Exact malloc counts
// change under the race detector, so these only run without -race.

package wal

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestAppendForceSteadyStateAllocBound pins the per-commit WAL cost:
// Append frames records in place with a chained CRC (no digest object),
// and Force reuses one persistent tail snapshot, delta-copying only the
// bytes appended since the previous round. Sealed blocks cycle through
// the written-out pool.
func TestAppendForceSteadyStateAllocBound(t *testing.T) {
	s := sim.New(1)
	dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 16})
	l, err := New(s, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var flushed uint64
	l.SetOnDurable(func(lsn uint64) { flushed = lsn })
	kick := s.NewSignal("kick")
	payload := make([]byte, 120)
	n := 0
	s.Spawn(nil, "committer", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			kick.Wait(p)
			lsn, err := l.Append(p, RecCommit, uint64(n), payload)
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := l.Force(p, lsn+1); err != nil {
				t.Errorf("force: %v", err)
				return
			}
			n++
		}
	})
	// Retire blocks continuously so the circular log never fills.
	step := func() {
		kick.Broadcast()
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		l.SetOldestNeeded(flushed)
	}
	for i := 0; i < 64; i++ { // warm the tail buffer and the block pool
		step()
	}
	start := n
	allocs := testing.AllocsPerRun(100, step)
	if n-start != 101 {
		t.Fatalf("expected 101 commits during measurement, got %d", n-start)
	}
	// Each commit is one Append plus one physical Force. A pre-pool
	// implementation paid a CRC digest, a full-block tail copy, and a
	// fresh block image per seal; steady state now leaves only stray
	// device-side map growth.
	if allocs > 2 {
		t.Fatalf("append+force allocates %.1f per commit, want <= 2", allocs)
	}
}
