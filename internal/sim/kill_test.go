package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKillUnwindsParkedProcAndRunsDefers(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	var cleaned bool
	var after bool
	s.Spawn(guest, "victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
		after = true
	})
	s.After(ms(5), guest.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if after {
		t.Fatal("proc continued past kill point")
	}
	if !guest.Dead() {
		t.Fatal("domain not dead")
	}
}

func TestKillSparesOtherDomains(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	hv := s.NewDomain("hv")
	var hvDone bool
	s.Spawn(guest, "g", func(p *Proc) { p.Sleep(time.Hour) })
	s.Spawn(hv, "h", func(p *Proc) {
		p.Sleep(ms(20))
		hvDone = true
	})
	s.After(ms(5), guest.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !hvDone {
		t.Fatal("hypervisor proc did not survive guest kill")
	}
}

func TestKillSelfDomainUnwindsCaller(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	var reached bool
	var cleaned bool
	s.Spawn(guest, "suicidal", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(ms(1))
		guest.Kill()
		reached = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("caller survived killing its own domain")
	}
	if !cleaned {
		t.Fatal("caller defers did not run")
	}
}

func TestKillBeforeStartPreventsRun(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	var ran bool
	s.Spawn(guest, "p", func(p *Proc) { ran = true })
	guest.Kill() // before the start event executes
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start proc still ran")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	s.Spawn(guest, "p", func(p *Proc) { p.Sleep(time.Hour) })
	s.After(ms(1), func() {
		guest.Kill()
		guest.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReviveAllowsRespawn(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	s.Spawn(guest, "old", func(p *Proc) { p.Sleep(time.Hour) })
	var rebooted bool
	s.After(ms(1), guest.Kill)
	s.After(ms(2), func() {
		guest.Revive()
		s.Spawn(guest, "new", func(p *Proc) { rebooted = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !rebooted {
		t.Fatal("respawned proc did not run")
	}
}

func TestKillReleasesMutexViaAbortHook(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	m := s.NewMutex("shared")
	var survivorGotLock bool
	// Guest proc queues for the mutex, then is killed while waiting.
	s.Spawn(nil, "holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(ms(10))
		m.Unlock(p)
	})
	s.Spawn(guest, "doomed", func(p *Proc) {
		p.Sleep(ms(1))
		m.Lock(p) // queued behind holder; killed at 5ms
		m.Unlock(p)
	})
	s.Spawn(nil, "survivor", func(p *Proc) {
		p.Sleep(ms(2))
		m.Lock(p) // queued behind doomed
		survivorGotLock = true
		m.Unlock(p)
	})
	s.After(ms(5), guest.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !survivorGotLock {
		t.Fatal("survivor never acquired mutex after queued waiter was killed")
	}
}

func TestKillOwnerWithHandedOffMutexPassesOn(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	m := s.NewMutex("shared")
	var survivorGotLock bool
	s.Spawn(nil, "holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(ms(5))
		m.Unlock(p) // hands ownership to doomed, which is killed at same instant
	})
	s.Spawn(guest, "doomed", func(p *Proc) {
		p.Sleep(ms(1))
		m.Lock(p)
		m.Unlock(p)
	})
	s.Spawn(nil, "survivor", func(p *Proc) {
		p.Sleep(ms(2))
		m.Lock(p)
		survivorGotLock = true
		m.Unlock(p)
	})
	// The watcher's wake event is scheduled after the holder's (both at t=0,
	// FIFO by seq), so at t=5ms the unlock's hand-off to doomed happens
	// first, then the kill — exercising the "ownership already handed to a
	// killed, not-yet-resumed waiter" path.
	s.Spawn(nil, "watcher", func(p *Proc) {
		p.Sleep(ms(5))
		guest.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !survivorGotLock {
		t.Fatal("mutex lost when its handed-off owner was killed")
	}
}

func TestKillRemovesResourceWaiter(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	r := s.NewResource("r", 2)
	var survivorRan bool
	s.Spawn(nil, "holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(ms(10))
		r.Release(2)
	})
	s.Spawn(guest, "doomed", func(p *Proc) {
		p.Sleep(ms(1))
		r.Acquire(p, 2)
		r.Release(2)
	})
	s.Spawn(nil, "survivor", func(p *Proc) {
		p.Sleep(ms(2))
		r.Acquire(p, 1)
		survivorRan = true
		r.Release(1)
	})
	s.After(ms(5), guest.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !survivorRan {
		t.Fatal("survivor starved after queued resource waiter was killed")
	}
}

func TestKillQueueWaiters(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	q := NewQueue[int](s, "q", 0)
	var got int
	s.Spawn(guest, "doomedGetter", func(p *Proc) {
		q.Get(p) // killed while waiting
	})
	s.Spawn(nil, "putter", func(p *Proc) {
		p.Sleep(ms(10))
		_ = q.Put(p, 42)
	})
	s.Spawn(nil, "getter", func(p *Proc) {
		p.Sleep(ms(6))
		got, _ = q.Get(p)
	})
	s.After(ms(5), guest.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("surviving getter got %d, want 42 (killed getter stole delivery?)", got)
	}
}

func TestSpawnIntoDeadDomainDoesNotRun(t *testing.T) {
	s := New(1)
	guest := s.NewDomain("guest")
	guest.Kill()
	var ran bool
	s.Spawn(guest, "zombie", func(p *Proc) { ran = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("proc spawned into dead domain ran")
	}
}

// quick-check: random kill times never corrupt the kernel — the simulation
// always terminates cleanly and hypervisor-domain work always completes.
func TestKillAtRandomTimesProperty(t *testing.T) {
	prop := func(seed int64, killAtMicros uint16) bool {
		s := New(seed)
		guest := s.NewDomain("guest")
		hv := s.NewDomain("hv")
		q := NewQueue[int](s, "work", 4)
		hvDone := false

		for i := 0; i < 3; i++ {
			s.Spawn(guest, fmt.Sprintf("g%d", i), func(p *Proc) {
				for {
					d := time.Duration(s.Rand().Intn(100)) * time.Microsecond
					p.Sleep(d)
					if err := q.Put(p, 1); err != nil {
						return
					}
				}
			})
		}
		s.Spawn(hv, "drain", func(p *Proc) {
			deadline := Time(10 * time.Millisecond)
			for p.Now() < deadline {
				if _, ok := q.TryGet(); !ok {
					p.Sleep(50 * time.Microsecond)
				}
			}
			hvDone = true
		})
		s.After(time.Duration(killAtMicros)*time.Microsecond, guest.Kill)
		if err := s.Run(); err != nil {
			t.Logf("seed=%d killAt=%dus: %v", seed, killAtMicros, err)
			return false
		}
		return hvDone
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// TestProcKillUnwindsOneProc: Proc.Kill stops a single process — deferred
// functions run, the domain stays live, siblings keep running.
func TestProcKillUnwindsOneProc(t *testing.T) {
	s := New(1)
	dom := s.NewDomain("hv")
	var cleaned, after, siblingDone bool
	victim := s.Spawn(dom, "victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
		after = true
	})
	s.Spawn(dom, "sibling", func(p *Proc) {
		p.Sleep(ms(20))
		siblingDone = true
	})
	s.After(ms(5), victim.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Proc.Kill")
	}
	if after {
		t.Fatal("proc continued past kill point")
	}
	if !siblingDone {
		t.Fatal("sibling in the same domain did not survive")
	}
	if dom.Dead() {
		t.Fatal("Proc.Kill killed the domain")
	}
}

// TestProcKillSelf: a process killing itself unwinds at the call.
func TestProcKillSelf(t *testing.T) {
	s := New(1)
	var cleaned, after bool
	s.Spawn(nil, "suicidal", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Kill()
		after = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned || after {
		t.Fatalf("cleaned=%v after=%v, want unwound at the Kill call", cleaned, after)
	}
}

// TestProcKillIdempotentAndAfterDone: killing a finished or already-killed
// proc is a no-op.
func TestProcKillIdempotentAndAfterDone(t *testing.T) {
	s := New(1)
	quick := s.Spawn(nil, "quick", func(p *Proc) {})
	slow := s.Spawn(nil, "slow", func(p *Proc) { p.Sleep(time.Hour) })
	s.After(ms(5), func() {
		quick.Kill() // already done
		slow.Kill()
		slow.Kill() // already killed
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !slow.Done() {
		t.Fatal("killed proc not done")
	}
}
