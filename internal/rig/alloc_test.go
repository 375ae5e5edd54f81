//go:build !race

package rig

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestUncontendedCommitAllocBound pins the whole uncontended commit path —
// Begin, Put, Commit through engine, WAL, hypervisor and the RapiLog buffer —
// the way the benchmark's engine.commit_probe drives it. It read 11.1
// allocations per commit before Begin and the lock table stopped allocating.
func TestUncontendedCommitAllocBound(t *testing.T) {
	r, err := New(Config{Seed: 1, Mode: RapiLog, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	const perRun = 256
	var runErr error
	var allocs float64
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			runErr = err
			return
		}
		i := 0
		commits := func() {
			for n := 0; n < perRun && runErr == nil; n, i = n+1, i+1 {
				tx := e.Begin(p)
				if runErr = tx.Put(keys[i%len(keys)], []byte("v")); runErr == nil {
					runErr = tx.Commit()
				}
			}
		}
		for w := 0; w < 8; w++ { // insert every key, warm every pool
			commits()
		}
		allocs = testing.AllocsPerRun(20, commits) / perRun
	})
	if err := r.S.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.2f allocations per commit", allocs)
	if allocs > 3 {
		t.Fatalf("uncontended Begin/Put/Commit allocates %.2f per commit, want <= 3 (11.1 before)", allocs)
	}
}
