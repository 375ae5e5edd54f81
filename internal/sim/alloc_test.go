//go:build !race

// Allocation-regression pins for the kernel's hot paths. AllocsPerRun
// counts every malloc in the process, and the race detector changes
// allocation behaviour, so these only run without -race.

package sim

import (
	"testing"
	"time"
)

// TestSleepWakeZeroAlloc pins the kernel's hottest cycle — schedule a
// timer, park, wake, dispatch — at zero allocations per event in steady
// state (pooled timers, value waiters, no closures, no formatted wait
// descriptions). Two sleepers half a period apart always have the other's
// wake-up due first, so every sleep goes through the heap; one alone takes
// every sleep in place (selfWake).
func TestSleepWakeZeroAlloc(t *testing.T) {
	for _, sleepers := range []int{2, 1} {
		s := New(1)
		for i := 0; i < sleepers; i++ {
			i := i
			s.Spawn(nil, "sleeper", func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Microsecond / 2)
				for {
					p.Sleep(time.Microsecond)
				}
			}).SetDaemon(true)
		}
		// Warm the timer pool and the heap's backing array.
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		inPlace := s.selfWakes
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("%d sleepers: sleep/wake steady state allocates %.1f per RunFor(1ms) (~1000 events each), want 0", sleepers, allocs)
		}
		if took := s.selfWakes > inPlace; took != (sleepers == 1) {
			t.Fatalf("%d sleepers: %d sleeps woke in place, want none unless there is one sleeper", sleepers, s.selfWakes-inPlace)
		}
		s.Close()
	}
}

// TestSignalBroadcastZeroAlloc pins the signal wait/broadcast round trip:
// a waiter is a value appended into a reused backing array, and the wake
// is an inlined pooled timer.
func TestSignalBroadcastZeroAlloc(t *testing.T) {
	s := New(1)
	sig := s.NewSignal("tick")
	w := s.Spawn(nil, "waiter", func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	w.SetDaemon(true)
	kick := func() {
		s.After(time.Microsecond, sig.Broadcast)
		if err := s.RunFor(10 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	kick() // warm pools and slice capacities
	// s.After allocates its fn closure context once per kick; the wait,
	// broadcast, park and wake themselves must add nothing.
	allocs := testing.AllocsPerRun(100, kick)
	if allocs > 1 {
		t.Fatalf("signal wait/broadcast allocates %.1f per cycle, want <= 1 (the After closure)", allocs)
	}
}

// TestQueueHandoffAllocBound pins the queue's blocking rendezvous: getter
// and putter bookkeeping is pooled per queue with prebuilt abort hooks.
func TestQueueHandoffAllocBound(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, "ring", 0)
	c := s.Spawn(nil, "consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	c.SetDaemon(true)
	prod := s.Spawn(nil, "producer", func(p *Proc) {
		for i := 0; ; i++ {
			if err := q.Put(p, i); err != nil {
				return
			}
			p.Sleep(time.Microsecond)
		}
	})
	prod.SetDaemon(true)
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.RunFor(100 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	// ~100 handoffs per run; anything beyond stray slice growth is a
	// regression against the pooled steady state.
	if allocs > 5 {
		t.Fatalf("queue handoff steady state allocates %.1f per 100 handoffs, want <= 5", allocs)
	}
}

// TestTimedWaitZeroAlloc pins a timed wait that ends by its event firing:
// the timeout timer comes from the pool, is cancelled in park and goes
// straight back, and the reused event keeps its waiter array.
func TestTimedWaitZeroAlloc(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("grant")
	w := s.Spawn(nil, "waiter", func(p *Proc) {
		for {
			ev.Reset()
			if !ev.WaitTimeout(p, time.Hour) {
				t.Error("timed out")
			}
		}
	})
	w.SetDaemon(true)
	f := s.Spawn(nil, "firer", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			ev.Fire()
		}
	})
	f.SetDaemon(true)
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("timed wait + fire allocates %.1f per RunFor(1ms) (~1000 waits), want 0", allocs)
	}
	if n := len(s.events.items); n > 2 {
		t.Fatalf("%d timers queued in steady state, want <= 2", n)
	}
}

// TestSpawnAllocBound pins what a process costs to create and retire: the
// Proc, its body closure and iter.Pull's coroutine state. The session path
// spawns one process per operation, so this is on a commit path.
func TestSpawnAllocBound(t *testing.T) {
	s := New(1)
	defer s.Close()
	body := func(p *Proc) {}
	spawn := func() {
		s.Spawn(nil, "p", body)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	spawn() // root domain, timer pool
	if allocs := testing.AllocsPerRun(100, spawn); allocs > 13 {
		t.Fatalf("Spawn + run to completion allocates %.1f, want <= 13", allocs)
	}
}

// TestKillAllocFree pins the kill path: marking a parked process killed,
// queueing its kill event and stepping its unwind to completion allocate
// nothing. Fault campaigns kill every process of a domain per trial.
func TestKillAllocFree(t *testing.T) {
	const runs = 100
	s := New(1)
	defer s.Close()
	never := s.NewEvent("never")
	victims := make([]*Proc, runs+1) // AllocsPerRun calls once more to warm up
	for i := range victims {
		victims[i] = s.Spawn(nil, "victim", func(p *Proc) { never.Wait(p) })
		victims[i].SetDaemon(true)
	}
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		v := victims[next]
		next++
		v.Kill()
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if !v.Done() {
			t.Fatalf("%s still running after its kill event", v.name)
		}
	})
	if allocs > 0 {
		t.Fatalf("killing a parked process allocates %.2f, want 0", allocs)
	}
}
