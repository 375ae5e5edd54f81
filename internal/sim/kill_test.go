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

// A Resource(1) is the kernel's mutex. At t=5ms the holder's release hands
// the unit to doomed — debited, wake scheduled — and the watcher (spawned
// last, so its same-instant wake runs after the holder's) kills doomed's
// domain before doomed resumes: the grant must come back and pass on.
func TestKillOwnerWithHandedOffMutexPassesOn(t *testing.T) {
	killGrantedHead(t, 1, 1)
}

// The same with units to spare: the killed head had been granted both units;
// two one-unit survivors behind it must both get theirs.
func TestKillGrantedTwoUnitWaiterReturnsBoth(t *testing.T) {
	killGrantedHead(t, 2, 2)
}

// killGrantedHead holds all of a capacity-unit resource, queues a doomed
// guest process asking for all of it with survivors one-unit requests behind
// it, and kills the guest in the instant the holder's release grants it.
func killGrantedHead(t *testing.T, capacity int64, survivors int) {
	t.Helper()
	s := New(1)
	guest := s.NewDomain("guest")
	r := s.NewResource("shared", capacity)
	ran := 0
	s.Spawn(nil, "holder", func(p *Proc) {
		r.Acquire(p, capacity)
		p.Sleep(ms(5))
		r.Release(capacity)
	})
	s.Spawn(guest, "doomed", func(p *Proc) {
		p.Sleep(ms(1))
		r.Acquire(p, capacity)
		defer r.Release(capacity)
		t.Error("doomed ran with the grant it was killed holding")
	})
	for i := 0; i < survivors; i++ {
		s.Spawn(nil, fmt.Sprintf("survivor%d", i), func(p *Proc) {
			p.Sleep(ms(2))
			r.Acquire(p, 1)
			defer r.Release(1)
			ran++
		})
	}
	s.Spawn(nil, "watcher", func(p *Proc) {
		p.Sleep(ms(5))
		if r.Available() != 0 || r.Waiters() != survivors {
			t.Errorf("at the kill: available %d, %d waiters; want the grant made and %d still queued",
				r.Available(), r.Waiters(), survivors)
		}
		guest.Kill()
	})
	err := s.Run()
	defer s.Close()
	if ran != survivors || r.Available() != capacity {
		t.Fatalf("grant lost with its killed, not-yet-resumed waiter: %d of %d survivors ran, available %d of %d (Run: %v)",
			ran, survivors, r.Available(), capacity, err)
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
				if len(q.items) == 0 {
					p.Sleep(50 * time.Microsecond)
					continue
				}
				q.items = popFront(q.items)
				q.refillFromPutter()
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
