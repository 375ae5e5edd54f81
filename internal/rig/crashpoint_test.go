package rig

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestGuestCrashAtEveryEventReturnsTheCore is crash-point enumeration on one
// machine: four stress clients contend for a single core, the same seed is
// replayed once per dispatched-event index k of a 1 500-event stretch of the
// steady state (past boot), the guest OS crashes after exactly k events, and
// the hypervisor runs on for 2 s. Whatever the guest was doing — burning
// CPU, queued for the core, or granted it by a release in that same instant
// and not yet resumed — the core must be back.
func TestGuestCrashAtEveryEventReturnsTheCore(t *testing.T) {
	const first, last = 2000, 3500
	var held, queued, midGrant, leaked int
	for k := first; k < last; k++ {
		r, err := New(Config{Seed: 5, Mode: RapiLog, Cores: 1, NoDaemons: true})
		if err != nil {
			t.Fatal(err)
		}
		r.S.Spawn(r.Plat.Domain(), "boot", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				t.Errorf("boot: %v", err)
				return
			}
			w := &workload.Stress{}
			for c := 0; c < 4; c++ {
				c := c
				r.S.Spawn(r.Plat.Domain(), "client", func(p *sim.Proc) {
					for w.DoAs(p, e, nil, c) == nil {
					}
				})
			}
		})
		cpu := r.Machine.CPU()
		// granted: the last event handed the core to a waiter that has not
		// run yet. The wake may sit behind other same-instant events for
		// several steps, so midGrant is a lower bound.
		granted := false
		for i := 0; i < k; i++ {
			before := cpu.Waiters()
			if ok, err := r.S.Step(); err != nil || !ok {
				t.Fatalf("k=%d: step %d: ok=%v err=%v", k, i, ok, err)
			}
			granted = cpu.Waiters() < before && cpu.Available() == 0
		}
		if cpu.Available() == 0 {
			held++
		}
		if cpu.Waiters() > 0 {
			queued++
		}
		if granted {
			midGrant++
		}
		r.CrashOS()
		if err := r.S.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if cpu.Available() != 1 {
			leaked++
			if leaked == 1 {
				t.Errorf("guest crashed after event %d: core never came back (available %d, %d waiters)",
					k, cpu.Available(), cpu.Waiters())
			}
		}
		r.Close()
	}
	t.Logf("kill points %d..%d: %d with the core held, %d with clients queued for it, ≥ %d between a grant and its resume; %d leaked the core",
		first, last-1, held, queued, midGrant, leaked)
	if leaked > 0 {
		t.Fatalf("the core leaked at %d of %d kill points", leaked, last-first)
	}
	if held == 0 || queued == 0 || midGrant == 0 {
		t.Fatal("vacuous sweep: a class of kill point was never reached")
	}
}
