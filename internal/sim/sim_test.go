package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestClockStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var woke Time
	s.Spawn(nil, "sleeper", func(p *Proc) {
		p.Sleep(ms(7))
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(ms(7)) {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn(nil, "a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn(nil, "b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnOrderIsStartOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn(nil, fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("start order %v not FIFO", order)
		}
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(Time(ms(3)), func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("event order %v not FIFO", order)
		}
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	s := New(1)
	var ran Time = -1
	s.After(ms(5), func() {
		s.At(Time(ms(1)), func() { ran = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != Time(ms(5)) {
		t.Fatalf("past event ran at %v, want clamp to 5ms", ran)
	}
}

func TestRunUntilStopsAtCutoff(t *testing.T) {
	s := New(1)
	var hits []Time
	for _, d := range []int{1, 2, 3, 4, 5} {
		d := d
		s.After(ms(d), func() { hits = append(hits, s.Now()) })
	}
	if err := s.RunUntil(Time(ms(3))); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d events before cutoff, want 3", len(hits))
	}
	if s.Now() != Time(ms(3)) {
		t.Fatalf("clock = %v, want 3ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d events after Run, want 5", len(hits))
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := New(1)
	if err := s.RunFor(ms(42)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(ms(42)) {
		t.Fatalf("clock = %v, want 42ms", s.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("never")
	s.Spawn(nil, "stuck", func(p *Proc) { ev.Wait(p) })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Procs) != 1 {
		t.Fatalf("stuck procs = %v, want 1", dl.Procs)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn(nil, "boom", func(p *Proc) { panic("kaboom") })
	err := s.Run()
	if err == nil {
		t.Fatal("want error from panicking proc")
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New(1)
	var recovered any
	s.Spawn(nil, "nested", func(p *Proc) {
		defer func() { recovered = recover() }()
		_ = s.Run()
	})
	// The inner panic is recovered by the proc itself, so outer Run succeeds.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("nested Run did not panic")
	}
}

func TestInterleavingTwoProcs(t *testing.T) {
	s := New(1)
	var trace []string
	s.Spawn(nil, "a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(ms(2))
			trace = append(trace, fmt.Sprintf("a@%v", p.Now().Duration().Milliseconds()))
		}
	})
	s.Spawn(nil, "b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(ms(3))
			trace = append(trace, fmt.Sprintf("b@%v", p.Now().Duration().Milliseconds()))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=6 both wake; b's wake event was scheduled earlier (at t=3 vs
	// t=4), so FIFO tie-breaking runs b first.
	want := []string{"a@2", "b@3", "a@4", "b@6", "a@6"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(ms(10))
	if got := base.Add(ms(5)); got != Time(ms(15)) {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(ms(4))); got != ms(6) {
		t.Fatalf("Sub = %v", got)
	}
	if base.Duration() != ms(10) {
		t.Fatalf("Duration = %v", base.Duration())
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	s := New(1)
	var at Time
	s.Spawn(nil, "p", func(p *Proc) {
		p.Sleep(-ms(5))
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("negative sleep advanced clock to %v", at)
	}
}

func TestLiveProcsCount(t *testing.T) {
	s := New(1)
	s.Spawn(nil, "p", func(p *Proc) { p.Sleep(ms(1)) })
	if len(s.procs) != 1 {
		t.Fatalf("%d live procs before run", len(s.procs))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.procs) != 0 {
		t.Fatalf("%d live procs after run", len(s.procs))
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []string {
		s := New(seed)
		var trace []string
		q := NewQueue[int](s, "q", 2)
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(nil, fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					d := time.Duration(s.Rand().Intn(5)) * time.Millisecond
					p.Sleep(d)
					if err := q.Put(p, i*10+j); err != nil {
						return
					}
				}
			})
		}
		s.Spawn(nil, "cons", func(p *Proc) {
			for k := 0; k < 12; k++ {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				trace = append(trace, fmt.Sprintf("%d@%v", v, p.Now()))
				p.Sleep(ms(1))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical random traces (suspicious)")
	}
}

func TestRunUntilEvent(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("goal")
	var after bool
	s.Spawn(nil, "p", func(p *Proc) {
		p.Sleep(ms(5))
		ev.Fire()
		p.Sleep(ms(100))
		after = true
	})
	if err := s.RunUntilEvent(ev); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(ms(5)) {
		t.Fatalf("stopped at %v, want 5ms", s.Now())
	}
	if after {
		t.Fatal("ran past the event")
	}
	// An event that can never fire is an error, not a hang.
	s2 := New(2)
	never := s2.NewEvent("never")
	if err := s2.RunUntilEvent(never); err == nil {
		t.Fatal("no error for unfireable event")
	}
}
