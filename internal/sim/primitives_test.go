package sim

import (
	"errors"
	"fmt"
	"testing"
)

func TestEventBroadcastWakesAll(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("go")
	var woke []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Spawn(nil, name, func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, p.name)
		})
	}
	s.After(ms(5), ev.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("done")
	ev.Fire()
	var at Time = -1
	s.Spawn(nil, "late", func(p *Proc) {
		ev.Wait(p)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("late waiter blocked until %v", at)
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("once")
	ev.Fire()
	ev.Fire()
	if !ev.Fired() {
		t.Fatal("event not fired")
	}
}

func TestEventWaitTimeoutFires(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("soon")
	var got bool
	var at Time
	s.Spawn(nil, "w", func(p *Proc) {
		got = ev.WaitTimeout(p, ms(10))
		at = p.Now()
	})
	s.After(ms(3), ev.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || at != Time(ms(3)) {
		t.Fatalf("got=%v at=%v, want fire at 3ms", got, at)
	}
}

func TestEventWaitTimeoutExpires(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("never")
	var got bool
	var at Time
	s.Spawn(nil, "w", func(p *Proc) {
		got = ev.WaitTimeout(p, ms(10))
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got || at != Time(ms(10)) {
		t.Fatalf("got=%v at=%v, want timeout at 10ms", got, at)
	}
}

func TestEventWaitTimeoutZeroPolls(t *testing.T) {
	s := New(1)
	ev := s.NewEvent("e")
	var got bool
	s.Spawn(nil, "w", func(p *Proc) { got = ev.WaitTimeout(p, 0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("zero timeout on unfired event reported fired")
	}
}

func TestSignalRepeats(t *testing.T) {
	s := New(1)
	sig := s.NewSignal("tick")
	var count int
	s.Spawn(nil, "w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			sig.Wait(p)
			count++
		}
	})
	s.Spawn(nil, "t", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(ms(1))
			sig.Broadcast()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	s := New(1)
	sig := s.NewSignal("maybe")
	var first, second bool
	s.Spawn(nil, "w", func(p *Proc) {
		first = sig.WaitTimeout(p, ms(5))  // broadcast at 2ms → true
		second = sig.WaitTimeout(p, ms(5)) // nothing → false at 7ms
	})
	s.After(ms(2), sig.Broadcast)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !first || second {
		t.Fatalf("first=%v second=%v, want true,false", first, second)
	}
}

func TestResourceBlocksAtCapacity(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu", 2)
	var concurrent, peak int64
	for i := 0; i < 6; i++ {
		s.Spawn(nil, fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			p.Sleep(ms(3))
			concurrent--
			r.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	s := New(1)
	r := s.NewResource("r", 4)
	var order []string
	// A large request arrives first and must not be starved by small ones.
	s.Spawn(nil, "hog", func(p *Proc) {
		p.Sleep(ms(1))
		r.Acquire(p, 4)
		order = append(order, "hog")
		r.Release(4)
	})
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(nil, fmt.Sprintf("small%d", i), func(p *Proc) {
			r.Acquire(p, 1) // grabbed at t=0
			p.Sleep(ms(2))
			r.Release(1)
			p.Sleep(ms(1))
			r.Acquire(p, 1) // queued behind hog
			order = append(order, fmt.Sprintf("small%d", i))
			r.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 || order[0] != "hog" {
		t.Fatalf("order = %v: large waiter starved", order)
	}
}

// AcquireFirst's waiter is granted before every waiter queued ahead of it,
// and takes free units that a blocked head would leave unused.
func TestResourceAcquireFirstIsGrantedNext(t *testing.T) {
	s := New(1)
	r := s.NewResource("r", 2)
	var order []string
	s.Spawn(nil, "holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(ms(2))
		r.Release(1)
		p.Sleep(ms(1))
		r.Release(1)
	})
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(nil, name, func(p *Proc) {
			p.Sleep(ms(1))
			r.Acquire(p, 2)
			order = append(order, name)
			r.Release(2)
		})
	}
	s.Spawn(nil, "first", func(p *Proc) {
		p.Sleep(ms(1) + 1)
		r.AcquireFirst(p, 1)
		order = append(order, fmt.Sprintf("first@%v", p.Now()))
		p.Sleep(ms(1))
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[first@2ms a b]" {
		t.Fatalf("grant order %s, want [first@2ms a b]", got)
	}
}

func TestResourceAcquireOverCapacityPanics(t *testing.T) {
	s := New(1)
	r := s.NewResource("r", 1)
	s.Spawn(nil, "p", func(p *Proc) { r.Acquire(p, 2) })
	if err := s.Run(); err == nil {
		t.Fatal("want error for over-capacity acquire")
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New(1)
	r := s.NewResource("r", 1)
	var a, b bool
	s.Spawn(nil, "p", func(p *Proc) {
		a = r.TryAcquire(p, 1)
		b = r.TryAcquire(p, 1)
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !a || b {
		t.Fatalf("a=%v b=%v, want true,false", a, b)
	}
}

func TestResourceAccounting(t *testing.T) {
	s := New(1)
	r := s.NewResource("r", 10)
	s.Spawn(nil, "p", func(p *Proc) {
		r.Acquire(p, 7)
		if r.Available() != 3 {
			t.Errorf("avail=%d, want 3", r.Available())
		}
		r.Release(7)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Available() != 10 {
		t.Fatalf("avail=%d after release", r.Available())
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, "q", 4)
	var got []int
	s.Spawn(nil, "prod", func(p *Proc) {
		for i := 0; i < 8; i++ {
			if err := q.Put(p, i); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	s.Spawn(nil, "cons", func(p *Proc) {
		for i := 0; i < 8; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed early")
			}
			got = append(got, v)
			p.Sleep(ms(1))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..7 in order", got)
		}
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, "q", 1)
	var putDone Time
	s.Spawn(nil, "prod", func(p *Proc) {
		_ = q.Put(p, 1)
		_ = q.Put(p, 2) // blocks until consumer takes item 1 at 5ms
		putDone = p.Now()
	})
	s.Spawn(nil, "cons", func(p *Proc) {
		p.Sleep(ms(5))
		q.Get(p)
		p.Sleep(ms(5))
		q.Get(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != Time(ms(5)) {
		t.Fatalf("second put completed at %v, want 5ms", putDone)
	}
}

func TestQueueRendezvous(t *testing.T) {
	s := New(1)
	q := NewQueue[string](s, "q", 0)
	var at Time
	var got string
	s.Spawn(nil, "prod", func(p *Proc) {
		_ = q.Put(p, "hello") // blocks until getter arrives
		at = p.Now()
	})
	s.Spawn(nil, "cons", func(p *Proc) {
		p.Sleep(ms(3))
		got, _ = q.Get(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if at != Time(ms(3)) {
		t.Fatalf("put completed at %v, want rendezvous at 3ms", at)
	}
}

func TestQueueClose(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, "q", 2)
	var drained []int
	var lastOK bool
	var putErr error
	s.Spawn(nil, "prod", func(p *Proc) {
		_ = q.Put(p, 1)
		_ = q.Put(p, 2)
		q.Close()
		putErr = q.Put(p, 3)
	})
	s.Spawn(nil, "cons", func(p *Proc) {
		p.Sleep(ms(1))
		for {
			v, ok := q.Get(p)
			if !ok {
				lastOK = ok
				return
			}
			drained = append(drained, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(drained) != 2 || lastOK {
		t.Fatalf("drained=%v lastOK=%v", drained, lastOK)
	}
	if !errors.Is(putErr, ErrClosed) {
		t.Fatalf("put after close: %v", putErr)
	}
}

func TestQueueCloseWakesBlockedPutter(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, "q", 0)
	var putErr error
	s.Spawn(nil, "prod", func(p *Proc) { putErr = q.Put(p, 1) })
	s.After(ms(2), q.Close)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(putErr, ErrClosed) {
		t.Fatalf("blocked put after close: %v", putErr)
	}
}
