package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Scheduler context stays on the goroutine that called Run: a panic in an At
// callback unwinds through Run into the caller's frame, where the caller can
// recover it.
func TestAtCallbackPanicSurfacesFromRun(t *testing.T) {
	s := New(1)
	s.Spawn(nil, "bystander", func(p *Proc) { p.Sleep(time.Hour) })
	s.After(ms(1), func() { panic("boom in scheduler context") })
	defer s.Close()
	defer func() {
		if r := recover(); r != "boom in scheduler context" {
			t.Fatalf("recovered %v, want the At callback's panic", r)
		}
	}()
	_ = s.Run()
	t.Fatal("Run returned past a panicking At callback")
}

// A timed wait that ends by its event firing takes its timeout back out of
// the heap, and nothing is dispatched when the timeout would have expired.
func TestCancelledTimeoutLeavesHeapAndNeverFires(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("ev")
	var fired bool
	var resumedAt Time
	s.Spawn(nil, "waiter", func(p *Proc) {
		fired = ev.WaitTimeout(p, ms(200))
		resumedAt = p.Now()
	})
	s.After(ms(1), ev.Fire)
	before := len(s.events.items) // start event + Fire callback
	if err := s.RunFor(ms(2)); err != nil {
		t.Fatal(err)
	}
	if !fired || resumedAt != Time(ms(1)) {
		t.Fatalf("fired=%v at %v, want true at 1ms", fired, resumedAt)
	}
	if n := len(s.events.items); n != 0 {
		t.Fatalf("%d timers left in the heap (%d before the wait): the timeout was not cancelled", n, before)
	}
	d := s.Dispatched()
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Dispatched() != d {
		t.Fatalf("%d events dispatched after the wait completed, want 0", s.Dispatched()-d)
	}
}

// WaitTimeout+Fire, repeated, leaves the heap where it started — signals too.
func TestTimedWaitsDoNotAccumulateTimers(t *testing.T) {
	s := New(1)
	sig := s.NewSignal("sig")
	rounds := 0
	w := s.Spawn(nil, "waiter", func(p *Proc) {
		for {
			ev := s.NewEvent("ev")
			s.After(ms(1), ev.Fire)
			if !ev.WaitTimeout(p, time.Hour) {
				t.Error("event wait timed out")
			}
			s.After(ms(1), sig.Broadcast)
			if !sig.WaitTimeout(p, time.Hour) {
				t.Error("signal wait timed out")
			}
			rounds++
		}
	})
	w.SetDaemon(true)
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rounds < 100 {
		t.Fatalf("only %d rounds ran", rounds)
	}
	// In flight at any instant: one callback or wake, and one timeout.
	if n := len(s.events.items); n > 2 {
		t.Fatalf("%d timers queued after %d timed waits, want <= 2", n, 2*rounds)
	}
}

// The cancelled timeout's timer object goes back to the pool and is handed to
// the next scheduler of an event. Its firing must not wake the process whose
// earlier wait it once belonged to.
func TestRecycledTimerCannotWakeTheWrongWait(t *testing.T) {
	s := New(1)
	ev1, ev2 := s.NewEvent("first"), s.NewEvent("second")
	var resumedAt Time
	s.Spawn(nil, "a", func(p *Proc) {
		ev1.WaitTimeout(p, ms(10)) // fires at 1ms; the 10ms timeout is cancelled
		ev2.Wait(p)                // untimed: only ev2 may end it
		resumedAt = p.Now()
	})
	s.Spawn(nil, "b", func(p *Proc) {
		p.Sleep(ms(1))
		ev1.Fire()
		p.Sleep(0) // let a cancel its timeout and park on ev2
		// This sleep takes the recycled timer and expires exactly when the
		// cancelled timeout would have.
		p.Sleep(ms(9))
		p.Sleep(ms(10))
		ev2.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != Time(ms(20)) {
		t.Fatalf("a resumed at %v, want 20ms (when ev2 fired)", resumedAt)
	}
}

// A kill during a timed wait cancels the timeout too: the dead process's
// timer does not keep Run going until it would have expired.
func TestKillDuringTimedWaitCancelsTimeout(t *testing.T) {
	s := New(1)
	dom := s.NewDomain("guest")
	ev := s.NewEvent("never")
	s.Spawn(dom, "victim", func(p *Proc) { ev.WaitTimeout(p, time.Hour) })
	s.After(ms(1), dom.Kill)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(ms(1)) {
		t.Fatalf("Run ended at %v: the dead process's timeout was still queued", s.Now())
	}
}

func TestCloseUnwindsParkedAndSkipsUnstarted(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	res := s.NewResource("cpu", 1)
	var order []string
	var ranUnstarted bool
	s.Spawn(nil, "holder", func(p *Proc) {
		defer func() { order = append(order, "holder") }()
		res.Acquire(p, 1)
		p.Sleep(time.Hour)
	})
	s.Spawn(nil, "queued", func(p *Proc) {
		defer func() { order = append(order, "queued") }()
		res.Acquire(p, 1) // parks in the resource's queue
	})
	if err := s.RunFor(ms(1)); err != nil {
		t.Fatal(err)
	}
	s.Spawn(nil, "unstarted", func(p *Proc) { ranUnstarted = true })
	if res.Waiters() != 1 || len(s.procs) != 3 {
		t.Fatalf("setup: %d waiters, %d live procs", res.Waiters(), len(s.procs))
	}

	s.Close()
	if got := strings.Join(order, ","); got != "holder,queued" {
		t.Fatalf("unwound %q, want holder,queued (id order, deferred functions run)", got)
	}
	if ranUnstarted {
		t.Fatal("a process that had never started ran during Close")
	}
	if res.Waiters() != 0 {
		t.Fatal("the queued process's abort hook did not run")
	}
	if len(s.procs) != 0 {
		t.Fatalf("%d live procs after Close", len(s.procs))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the simulation", n, base)
	}
	s.Close() // idempotent
}

// Deferred functions may spawn while Close unwinds their process; what they
// spawn is closed too and never runs.
func TestCloseHandlesSpawnDuringUnwind(t *testing.T) {
	s := New(1)
	var respawned bool
	s.Spawn(nil, "supervised", func(p *Proc) {
		defer s.Spawn(nil, "restart", func(p *Proc) { respawned = true })
		p.Sleep(time.Hour)
	})
	if err := s.RunFor(ms(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if respawned || len(s.procs) != 0 {
		t.Fatalf("respawned=%v live=%d after Close", respawned, len(s.procs))
	}
}

// Close hooks run once, in registration order, after the last process has
// unwound — one registered by a deferred function during the unwind too —
// and the events are dropped. A second Close runs none, and registering on
// a closed simulation panics.
func TestCloseHooksRunOnceAfterUnwind(t *testing.T) {
	s := New(1)
	var order []string
	hook := func(name string) func() {
		return func() {
			if len(s.procs) != 0 || len(s.events.items) != 0 {
				t.Errorf("hook %s ran with %d live procs, %d events", name, len(s.procs), len(s.events.items))
			}
			order = append(order, name)
		}
	}
	s.OnClose(hook("first"))
	for _, name := range []string{"a", "b"} {
		s.Spawn(nil, name, func(p *Proc) {
			defer func() {
				order = append(order, "unwound "+name)
				s.OnClose(hook("late " + name))
			}()
			defer s.Spawn(nil, "restart "+name, func(p *Proc) { order = append(order, "restarted "+name) })
			p.Sleep(time.Hour)
		})
	}
	s.OnClose(hook("second"))
	s.After(2*time.Hour, func() {})
	if err := s.RunFor(ms(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	want := "unwound a,unwound b,first,second,late a,late b"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("close ran %q, want %q", got, want)
	}
	s.Close()
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("a second Close ran %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OnClose on a closed simulation did not panic")
		}
	}()
	s.OnClose(func() { t.Error("a hook registered after Close ran") })
}

func TestCloseMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := New(1)
	s.After(0, func() { mustPanic("Close from an At callback", s.Close) })
	s.Spawn(nil, "p", func(p *Proc) { mustPanic("Close from a process", s.Close) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	mustPanic("Spawn after Close", func() { s.Spawn(nil, "late", func(*Proc) {}) })
}

// Deadlock reports still name what each process waits on, now that the
// description is rendered on demand.
func TestDeadlockReportDescribesLazyWaits(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("never")
	q := NewQueue[int](s, "ring", 0)
	m := s.NewResource("mu", 1)
	s.Spawn(nil, "a", func(p *Proc) { ev.Wait(p) })
	s.Spawn(nil, "b", func(p *Proc) { q.Get(p) })
	s.Spawn(nil, "c", func(p *Proc) { m.Acquire(p, 1) }) // exits holding mu
	s.Spawn(nil, "d", func(p *Proc) { m.Acquire(p, 1) })
	err := s.Run()
	defer s.Close()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want a deadlock", err)
	}
	got := strings.Join(de.Procs, " ")
	for _, want := range []string{"a(1) waiting on event:never", "b(2) waiting on queue:ring(get)", "d(4) waiting on resource:mu"} {
		if !strings.Contains(got, want) {
			t.Fatalf("deadlock report %q lacks %q", got, want)
		}
	}
}
