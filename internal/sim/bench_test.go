package sim

import (
	"testing"
	"time"
)

// Kernel micro-benchmarks: the cost of the primitives everything else is
// built on. These bound how much simulated activity a wall-clock second
// buys.

// BenchmarkTimerDispatch dispatches b.N callbacks from a heap held at a
// fixed depth: each callback queues the next of its chain, so the heap holds
// timerDepth timers however large b.N is, as a running simulation's does.
func BenchmarkTimerDispatch(b *testing.B) {
	const timerDepth = 64
	s := New(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired <= b.N-timerDepth {
			s.After(timerDepth*time.Microsecond, tick)
		}
	}
	for i := 0; i < min(timerDepth, b.N); i++ {
		s.After(time.Duration(i)*time.Microsecond, tick)
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("%d/%d", fired, b.N)
	}
}

// One sleeper alone wakes in place (selfWake); two of them half a period
// apart each find the other due first and go through the heap and the
// scheduler — the full park/dispatch/resume cycle.
func BenchmarkProcSleepWake(b *testing.B) {
	for _, c := range []struct {
		name     string
		sleepers int
	}{{"alone", 1}, {"interleaved", 2}} {
		b.Run(c.name, func(b *testing.B) {
			s := New(1)
			n := 0
			for i := 0; i < c.sleepers; i++ {
				i := i
				s.Spawn(nil, "sleeper", func(p *Proc) {
					p.Sleep(time.Duration(i) * time.Microsecond / 2)
					for ; n < b.N; n++ {
						p.Sleep(time.Microsecond)
					}
				})
			}
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			if n < b.N {
				b.Fatalf("%d/%d", n, b.N)
			}
		})
	}
}

func BenchmarkQueueHandoff(b *testing.B) {
	s := New(1)
	q := NewQueue[int](s, "q", 1)
	s.Spawn(nil, "prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if err := q.Put(p, i); err != nil {
				return
			}
		}
		q.Close()
	})
	got := 0
	s.Spawn(nil, "cons", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			got++
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if got != b.N {
		b.Fatalf("%d/%d", got, b.N)
	}
}

func BenchmarkResourceHandoff(b *testing.B) {
	s := New(1)
	m := s.NewResource("m", 1)
	for w := 0; w < 2; w++ {
		iters := b.N / 2
		s.Spawn(nil, "w", func(p *Proc) {
			for i := 0; i < iters; i++ {
				m.Acquire(p, 1)
				p.Sleep(0)
				m.Release(1)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSpawnRun(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Spawn(nil, "p", func(p *Proc) {})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
