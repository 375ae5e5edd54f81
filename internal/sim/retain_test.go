//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestGrantedWaiterIsNotRetained: a resource's wait queue shifts down as it
// grants, and the slot it vacates must not keep the granted waiter. A stale
// slot pinned the last waiter's process, and through its closure whatever
// the process had captured, for as long as the resource lived: on `failover`
// that was the last log-scan extent each cluster's disk arm had queued.
func TestGrantedWaiterIsNotRetained(t *testing.T) {
	s := New(1)
	arm := s.NewResource("arm", 1)
	var captured weak.Pointer[[1 << 16]byte]
	s.Spawn(nil, "holder", func(p *Proc) {
		arm.Acquire(p, 1)
		p.Sleep(time.Millisecond)
		arm.Release(1)
	})
	func() {
		buf := new([1 << 16]byte)
		captured = weak.Make(buf)
		s.Spawn(nil, "waiter", func(p *Proc) {
			arm.Acquire(p, 1) // queues behind the holder
			buf[0] = 1
			arm.Release(1)
		})
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if captured.Value() != nil {
		t.Fatal("a finished waiter's captured buffer is still reachable through the resource")
	}
	runtime.KeepAlive(arm)
}
