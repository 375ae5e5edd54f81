package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Sleep's fast path (selfWake) must be invisible: a simulation driven by a
// run loop, where it is on, follows the schedule of the same simulation
// single-stepped by hand, where it is off — same clock and same Dispatched at
// every point a process observes them.

// mixedProgram spawns a seeded tangle of sleepers, timed waiters, a
// broadcaster, a contended resource, At callbacks and a mid-run kill on s,
// and returns the log its processes write: who resumed, when, and how many
// events had been dispatched by then. Durations are multiples of 10 µs drawn
// from a small range, so wake-ups tie often.
func mixedProgram(s *Sim, seed int64) *[]string {
	rng := rand.New(rand.NewSource(seed))
	log := &[]string{}
	note := func(who string) {
		*log = append(*log, fmt.Sprintf("%s @%v #%d", who, s.Now(), s.Dispatched()))
	}
	tick := func() time.Duration { return time.Duration(rng.Intn(6)) * 10 * time.Microsecond }
	sig := s.NewSignal("sig")
	cpu := s.NewResource("cpu", 2)
	victims := s.NewDomain("victims")

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("worker%d", i)
		dom := (*Domain)(nil)
		if i == 4 {
			dom = victims
		}
		s.Spawn(dom, name, func(p *Proc) {
			for n := 0; n < 60; n++ {
				switch rng.Intn(5) {
				case 0, 1:
					p.Sleep(tick())
				case 2:
					cpu.Acquire(p, 1)
					p.Sleep(tick())
					cpu.Release(1)
				case 3:
					sig.WaitTimeout(p, tick())
				case 4:
					sig.Broadcast()
					p.Sleep(0)
				}
				note(name)
			}
		})
	}
	// A stretch with a single live sleeper, so that the fast path has long
	// runs of its own, then company again.
	s.Spawn(nil, "loner", func(p *Proc) {
		p.Sleep(ms(50))
		for n := 0; n < 40; n++ {
			p.Sleep(tick())
			note("loner")
		}
		s.Spawn(nil, "late", func(p *Proc) {
			for n := 0; n < 10; n++ {
				p.Sleep(tick())
				note("late")
			}
		})
		p.Sleep(tick())
		note("loner")
	})
	for i := 1; i <= 8; i++ {
		s.After(time.Duration(i)*70*time.Microsecond, func() { note("callback") })
	}
	s.After(300*time.Microsecond, victims.Kill)
	return log
}

func TestSelfWakeMatchesSingleSteppedSchedule(t *testing.T) {
	taken := uint64(0)
	for seed := int64(1); seed <= 20; seed++ {
		stepped := New(seed)
		want := mixedProgram(stepped, seed)
		for {
			ok, err := stepped.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if stepped.selfWakes != 0 {
			t.Fatalf("seed %d: %d sleeps took the fast path under Step, want 0", seed, stepped.selfWakes)
		}

		run := New(seed)
		got := mixedProgram(run, seed)
		// In slices, to cross RunUntil boundaries mid-sleep as well.
		for len(run.events.items) > 0 {
			if err := run.RunFor(170 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		taken += run.selfWakes

		if !reflect.DeepEqual(*got, *want) {
			for i := range *want {
				if i >= len(*got) || (*got)[i] != (*want)[i] {
					t.Fatalf("seed %d: schedules part at entry %d: run loop %q, single-stepped %q",
						seed, i, append(*got, "<end>")[i], (*want)[i])
				}
			}
			t.Fatalf("seed %d: run loop logged %d entries, single-stepped %d", seed, len(*got), len(*want))
		}
		if run.Dispatched() != stepped.Dispatched() || run.seq != stepped.seq {
			t.Fatalf("seed %d: run loop dispatched %d events (seq %d), single-stepped %d (seq %d)",
				seed, run.Dispatched(), run.seq, stepped.Dispatched(), stepped.seq)
		}
	}
	if taken < 20*40 {
		t.Fatalf("only %d sleeps took the fast path over 20 programs: the comparison is vacuous", taken)
	}
}

// The fast path stops where the run loop would: not past RunUntil's cutoff,
// and not at all once RunUntilEvent's event has fired.
func TestSelfWakeStopsAtRunBounds(t *testing.T) {
	s := New(1)
	var wakes []Time
	s.Spawn(nil, "sleeper", func(p *Proc) {
		for {
			p.Sleep(ms(4))
			wakes = append(wakes, p.Now())
		}
	}).SetDaemon(true)
	if err := s.RunUntil(Time(ms(10))); err != nil {
		t.Fatal(err)
	}
	if want := []Time{Time(ms(4)), Time(ms(8))}; !reflect.DeepEqual(wakes, want) || s.Now() != Time(ms(10)) || s.Dispatched() != 3 {
		t.Fatalf("after RunUntil(10ms): wakes %v, clock %v, %d events; want %v, 10ms, 3", wakes, s.Now(), s.Dispatched(), want)
	}
	if s.selfWakes != 2 {
		t.Fatalf("%d sleeps took the fast path, want both", s.selfWakes)
	}
	if err := s.RunUntil(Time(ms(12))); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 3 || wakes[2] != Time(ms(12)) {
		t.Fatalf("after RunUntil(12ms): wakes %v, want a third at 12ms", wakes)
	}
	s.Close()

	s = New(1)
	defer s.Close()
	done := s.NewEvent("done")
	ranOn := false
	s.Spawn(nil, "worker", func(p *Proc) {
		p.Sleep(ms(1))
		p.Sleep(ms(1))
		done.Fire()
		p.Sleep(ms(1))
		ranOn = true
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	if ranOn || s.Now() != Time(ms(2)) || s.Dispatched() != 3 {
		t.Fatalf("RunUntilEvent returned with ranOn=%v at %v after %d events; want false, 2ms, 3", ranOn, s.Now(), s.Dispatched())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranOn || s.Now() != Time(ms(3)) || s.Dispatched() != 4 {
		t.Fatalf("after Run: ranOn=%v at %v after %d events; want true, 3ms, 4", ranOn, s.Now(), s.Dispatched())
	}
}

// An event already queued for the instant a sleep ends runs first, as it
// always did: the sleeper's wake-up would have had the larger sequence number.
func TestSelfWakeYieldsToEarlierEventAtSameInstant(t *testing.T) {
	s := New(1)
	defer s.Close()
	var order []string
	s.After(ms(5), func() { order = append(order, "callback") })
	s.Spawn(nil, "sleeper", func(p *Proc) {
		p.Sleep(ms(5))
		order = append(order, "sleeper")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"callback", "sleeper"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if s.selfWakes != 0 {
		t.Fatalf("the sleep took the fast path past an event due at the same instant")
	}
}
