package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// Direct lock-table tests: the engine tests exercise locking through
// transactions; these pin down the manager's own semantics.

func ltRig(seed int64, timeout time.Duration) (*sim.Sim, ltTest) {
	s := sim.New(seed)
	return s, ltTest{newLockTable(s, timeout), make(map[uint64][]*lock)}
}

// ltTest drives a lock table as transactions do: the entries a txid takes
// fresh are what its releaseAll releases.
type ltTest struct {
	*lockTable
	held map[uint64][]*lock
}

func (lt ltTest) acquire(p *sim.Proc, txid uint64, key string, mode LockMode) (bool, error) {
	lk, fresh, err := lt.lockTable.acquire(p, txid, keyHash(key), key, mode)
	if fresh {
		lt.held[txid] = append(lt.held[txid], lk)
	}
	return fresh, err
}

func (lt ltTest) releaseAll(txid uint64) {
	lt.lockTable.releaseAll(txid, lt.held[txid])
	delete(lt.held, txid)
}

func TestLockSharedCompatible(t *testing.T) {
	s, lt := ltRig(1, lockTimeout)
	var holders int
	for i := 0; i < 3; i++ {
		id := uint64(i + 1)
		s.Spawn(nil, fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			if _, err := lt.acquire(p, id, "k", LockS); err != nil {
				t.Errorf("S acquire: %v", err)
				return
			}
			holders++
			p.Sleep(time.Millisecond)
			lt.releaseAll(id)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if holders != 3 {
		t.Fatalf("holders = %d", holders)
	}
}

func TestLockExclusiveBlocksShared(t *testing.T) {
	s, lt := ltRig(1, lockTimeout)
	var order []string
	s.Spawn(nil, "writer", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 1, "k", LockX)
		order = append(order, "X-acquired")
		p.Sleep(5 * time.Millisecond)
		order = append(order, "X-released")
		lt.releaseAll(1)
	})
	s.Spawn(nil, "reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_, _ = lt.acquire(p, 2, "k", LockS)
		order = append(order, "S-acquired")
		lt.releaseAll(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"X-acquired", "X-released", "S-acquired"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestLockReacquireStrongerIsUpgrade(t *testing.T) {
	s, lt := ltRig(1, lockTimeout)
	s.Spawn(nil, "p", func(p *sim.Proc) {
		if _, err := lt.acquire(p, 1, "k", LockS); err != nil {
			t.Errorf("S: %v", err)
		}
		// Sole holder: upgrade granted immediately.
		if _, err := lt.acquire(p, 1, "k", LockX); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		// X implies S: re-acquiring weaker is a no-op.
		if _, err := lt.acquire(p, 1, "k", LockS); err != nil {
			t.Errorf("weaker re-acquire: %v", err)
		}
		lt.releaseAll(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockUpgradeWaitsForOtherReaders(t *testing.T) {
	s, lt := ltRig(1, lockTimeout)
	var upgraded sim.Time
	s.Spawn(nil, "upgrader", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 1, "k", LockS)
		p.Sleep(time.Millisecond)
		if _, err := lt.acquire(p, 1, "k", LockX); err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		upgraded = p.Now()
		lt.releaseAll(1)
	})
	s.Spawn(nil, "reader", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 2, "k", LockS)
		p.Sleep(5 * time.Millisecond)
		lt.releaseAll(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if upgraded.Duration() < 5*time.Millisecond {
		t.Fatalf("upgrade completed at %v, before the other reader released", upgraded)
	}
}

func TestLockDeadlockDetectedImmediately(t *testing.T) {
	s, lt := ltRig(1, time.Hour) // huge timeout: detection must not rely on it
	var deadlocks int
	start := sim.Time(0)
	var resolvedAt sim.Time
	for i := 0; i < 2; i++ {
		id := uint64(i + 1)
		first, second := "a", "b"
		if i == 1 {
			first, second = "b", "a"
		}
		s.Spawn(nil, fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			_, _ = lt.acquire(p, id, first, LockX)
			p.Sleep(time.Millisecond)
			if _, err := lt.acquire(p, id, second, LockX); err != nil {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
					resolvedAt = p.Now()
				}
				lt.releaseAll(id)
				return
			}
			lt.releaseAll(id)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if deadlocks == 0 {
		t.Fatal("AB/BA cycle not detected")
	}
	if resolvedAt.Sub(start) > 10*time.Millisecond {
		t.Fatalf("deadlock resolved at %v — timed out instead of detected", resolvedAt)
	}
}

func TestLockThreeWayCycleDetected(t *testing.T) {
	s, lt := ltRig(1, time.Hour)
	keys := []string{"a", "b", "c"}
	var deadlocks int
	for i := 0; i < 3; i++ {
		id := uint64(i + 1)
		first, second := keys[i], keys[(i+1)%3]
		s.Spawn(nil, fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			_, _ = lt.acquire(p, id, first, LockX)
			p.Sleep(time.Millisecond)
			if _, err := lt.acquire(p, id, second, LockX); err != nil {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
				lt.releaseAll(id)
				return
			}
			p.Sleep(time.Millisecond)
			lt.releaseAll(id)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if deadlocks == 0 {
		t.Fatal("three-way cycle not detected")
	}
	if deadlocks == 3 {
		t.Fatal("every participant aborted; only cycle-closers should")
	}
}

func TestLockSharedUpgradeDeadlock(t *testing.T) {
	// Two S holders both upgrading is an unavoidable cycle: one must die.
	s, lt := ltRig(1, time.Hour)
	var deadlocks, upgrades int
	for i := 0; i < 2; i++ {
		id := uint64(i + 1)
		s.Spawn(nil, fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			_, _ = lt.acquire(p, id, "k", LockS)
			p.Sleep(time.Millisecond)
			if _, err := lt.acquire(p, id, "k", LockX); err != nil {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
				lt.releaseAll(id)
				return
			}
			upgrades++
			lt.releaseAll(id)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if deadlocks != 1 || upgrades != 1 {
		t.Fatalf("deadlocks=%d upgrades=%d, want exactly one victim and one winner", deadlocks, upgrades)
	}
}

func TestLockTimeoutBackstop(t *testing.T) {
	// A waiter blocked by a holder that never releases (no cycle) falls
	// back to the timeout.
	s, lt := ltRig(1, 5*time.Millisecond)
	var timedOut bool
	s.Spawn(nil, "holder", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 1, "k", LockX)
		p.Sleep(time.Hour)
		lt.releaseAll(1)
	})
	s.Spawn(nil, "waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_, err := lt.acquire(p, 2, "k", LockX)
		timedOut = errors.Is(err, ErrLockTimeout)
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("waiter did not time out")
	}
}

func TestLockReleaseCleansEmptyEntries(t *testing.T) {
	s, lt := ltRig(1, lockTimeout)
	s.Spawn(nil, "p", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 1, "k1", LockX)
		_, _ = lt.acquire(p, 1, "k2", LockS)
		lt.releaseAll(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lt.locks) != 0 {
		t.Fatalf("lock table retains %d empty entries", len(lt.locks))
	}
}

func TestLockWriterNotStarvedByReaders(t *testing.T) {
	// Readers keep arriving; a queued writer must still get the lock
	// (FIFO grant: readers behind the writer wait).
	s, lt := ltRig(1, lockTimeout)
	var writerAt sim.Time
	s.Spawn(nil, "r0", func(p *sim.Proc) {
		_, _ = lt.acquire(p, 100, "k", LockS)
		p.Sleep(2 * time.Millisecond)
		lt.releaseAll(100)
	})
	s.Spawn(nil, "writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_, _ = lt.acquire(p, 1, "k", LockX)
		writerAt = p.Now()
		lt.releaseAll(1)
	})
	for i := 0; i < 5; i++ {
		id := uint64(i + 10)
		s.Spawn(nil, fmt.Sprintf("r%d", i+1), func(p *sim.Proc) {
			p.Sleep(time.Duration(i)*500*time.Microsecond + 1500*time.Microsecond)
			_, _ = lt.acquire(p, id, "k", LockS)
			p.Sleep(2 * time.Millisecond)
			lt.releaseAll(id)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if writerAt.Duration() > 3*time.Millisecond {
		t.Fatalf("writer waited until %v: starved by later readers", writerAt)
	}
}
