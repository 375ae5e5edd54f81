//go:build !race

package rig

import (
	"fmt"
	"runtime"
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
// stopped allocating, 2.0 while a Get copied its value, and 1.02 while Begin
// allocated its Tx.
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
	if allocs > 0.25 {
		t.Fatalf("uncontended Begin/Get/Put/Commit allocates %.2f per commit, want <= 0.25 (1.02 before)", allocs)
	}
}

// TestWorkloadTransactionAllocBound pins one client's TPC-B transaction and
// TPC-C mix (the benchmark's scales), unjournaled. What is left is the
// amortised growth of the index, the heap's pages and the key arenas. They
// read 12.1 and 47.9 allocations per commit while every Get copied its value
// and every key and row was a fresh allocation, 3.1 and 9.1 while inserted
// and looked-up keys were, and 1.14 and 1.50 while Begin allocated its Tx.
func TestWorkloadTransactionAllocBound(t *testing.T) {
	for _, c := range []struct {
		wl          workload.Workload
		max, before float64
	}{
		{&workload.TPCB{}, 0.3, 1.14},
		{&workload.TPCC{Warehouses: 1, Customers: 10, Items: 200}, 0.75, 1.50},
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

// TestContendedCommitAllocBound pins TPC-B's contended path: eight clients
// with retries on native sync logging, where the S→X upgrades on hot rows
// make several deadlock victims per commit. Every aborted attempt runs
// Begin, the lock table's conflict path and Abort, so this is where a
// per-attempt Tx or a per-victim error shows. It read 9.27 allocations per
// commit while Begin allocated its Tx and a victim got a formatted error.
func TestContendedCommitAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, window = 2 * time.Second, 4 * time.Second
	r, err := New(Config{Seed: 1, Mode: NativeSync})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var runErr error
	var mallocs, commits, aborts int64
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			runErr = err
			return
		}
		wl := &workload.TPCB{}
		if runErr = wl.Load(p, e); runErr != nil {
			return
		}
		// The marker reads both ends of the window from inside the run, so
		// neither the clients' start nor their end is counted.
		st := e.Stats()
		p.Sim().Spawn(nil, "window", func(mp *sim.Proc) {
			var m runtime.MemStats
			mp.Sleep(warm)
			runtime.ReadMemStats(&m)
			mallocs, commits, aborts = -int64(m.Mallocs), -st.Commits.Value(), -st.Aborts.Value()
			mp.Sleep(window)
			runtime.ReadMemStats(&m)
			mallocs, commits, aborts = mallocs+int64(m.Mallocs), commits+st.Commits.Value(), aborts+st.Aborts.Value()
		})
		workload.RunClients(p, p.Domain(), e, wl, workload.RunnerConfig{
			Clients: 8, Duration: window + time.Second, Warmup: warm, Retries: 100,
		})
	})
	if err := r.S.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if commits == 0 || aborts < commits {
		t.Fatalf("%d commits and %d aborts in the window: want at least one deadlock victim per commit", commits, aborts)
	}
	allocs := float64(mallocs) / float64(commits)
	t.Logf("%d commits, %d aborts: %.2f allocations per commit", commits, aborts, allocs)
	if allocs > 0.5 {
		t.Fatalf("contended TPC-B allocates %.2f per commit, want <= 0.5 (9.27 before)", allocs)
	}
}
