//go:build !race

package rig

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocsPerCommit boots an uncontended RapiLog machine, runs load once, and
// returns the heap allocations per call of commit, measured after eight
// warm-up rounds have grown every pool and map the steady path uses.
func allocsPerCommit(t *testing.T, load func(*sim.Proc, *engine.Engine) error, commit func(*sim.Proc, *engine.Engine) error) float64 {
	t.Helper()
	r, err := New(Config{Seed: 1, Mode: RapiLog, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const perRun = 256
	var runErr error
	var allocs float64
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			runErr = err
			return
		}
		if runErr = load(p, e); runErr != nil {
			return
		}
		commits := func() {
			for n := 0; n < perRun && runErr == nil; n++ {
				runErr = commit(p, e)
			}
		}
		for w := 0; w < 8; w++ {
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
	return allocs
}

// TestUncontendedCommitAllocBound pins the whole uncontended commit path —
// Begin, Get, Put, Commit through engine, WAL, hypervisor and the RapiLog
// buffer — the way the benchmark's engine.commit_probe drives it, plus a
// read. It read 11.1 allocations per commit before Begin and the lock table
// stopped allocating, and 2.0 while a Get copied its value.
func TestUncontendedCommitAllocBound(t *testing.T) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	i := 0
	allocs := allocsPerCommit(t, func(*sim.Proc, *engine.Engine) error { return nil },
		func(p *sim.Proc, e *engine.Engine) error {
			k := keys[i%len(keys)]
			i++
			tx := e.Begin(p)
			if _, _, err := tx.Get(k); err != nil {
				return err
			}
			if err := tx.Put(k, []byte("v")); err != nil {
				return err
			}
			return tx.Commit()
		})
	if allocs > 3 {
		t.Fatalf("uncontended Begin/Get/Put/Commit allocates %.2f per commit, want <= 3 (11.1 before)", allocs)
	}
}

// TestWorkloadTransactionAllocBound pins one client's TPC-B transaction and
// TPC-C mix (the benchmark's scales), unjournaled. What is left is Begin's
// Tx and the amortised growth of the index, the heap's pages and the key
// arenas. They read 12.1 and 47.9 allocations per commit while every Get
// copied its value and every key and row was a fresh allocation, and 3.1
// and 9.1 while inserted and looked-up keys were.
func TestWorkloadTransactionAllocBound(t *testing.T) {
	for _, c := range []struct {
		wl          workload.Workload
		max, before float64
	}{
		{&workload.TPCB{}, 1.5, 12.1},
		{&workload.TPCC{Warehouses: 1, Customers: 10, Items: 200}, 2, 47.9},
	} {
		t.Run(c.wl.Name(), func(t *testing.T) {
			allocs := allocsPerCommit(t, c.wl.Load, func(p *sim.Proc, e *engine.Engine) error {
				return c.wl.Do(p, e, nil)
			})
			if allocs > c.max {
				t.Fatalf("%s allocates %.2f per commit, want <= %v (%v before)", c.wl.Name(), allocs, c.max, c.before)
			}
		})
	}
}
