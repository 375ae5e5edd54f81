package engine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// commitRows commits each key = value pair in one transaction.
func commitRows(p *sim.Proc, e *Engine, kv ...string) error {
	tx := e.Begin(p)
	for i := 0; i < len(kv); i += 2 {
		if err := tx.Put(kv[i], []byte(kv[i+1])); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// readRow reads key in a transaction of its own.
func readRow(p *sim.Proc, e *Engine, key string) string {
	tx := e.Begin(p)
	defer tx.Abort()
	v, ok, err := tx.Get(key)
	if err != nil || !ok {
		return "<missing>"
	}
	return string(v)
}

// A Get's value is a view into the transaction's read buffer: the
// transaction's next call reuses it, and nothing another transaction does
// while this one is parked touches it.
func TestGetViewLivesUntilTheTransactionsNextCall(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		if err := commitRows(p, e, "a", "AAAA", "b", "BBBB", "c", "CCCC"); err != nil {
			t.Error(err)
			return
		}
		tx := e.Begin(p)
		defer tx.Abort()
		v, ok, err := tx.Get("a")
		if err != nil || !ok || string(v) != "AAAA" {
			t.Errorf("get a: %q %v %v", v, ok, err)
			return
		}
		// Another transaction reads and rewrites rows on the same page
		// while this one sleeps.
		other := p.Sim().NewEvent("other")
		p.Sim().Spawn(p.Domain(), "other", func(op *sim.Proc) {
			defer other.Fire()
			tx2 := e.Begin(op)
			if _, _, err := tx2.Get("b"); err != nil {
				t.Errorf("other get: %v", err)
			}
			_ = tx2.Put("c", []byte("cccc"))
			if err := tx2.Commit(); err != nil {
				t.Errorf("other commit: %v", err)
			}
		})
		other.Wait(p)
		p.Sleep(time.Millisecond)
		if string(v) != "AAAA" {
			t.Errorf("another transaction's work changed this one's view to %q", v)
		}
		if _, _, err := tx.Get("b"); err != nil {
			t.Error(err)
		}
		if string(v) != "BBBB" {
			t.Errorf("the next Get left the view at %q, want it reused for BBBB", v)
		}
	})
}

// Changing a returned value changes neither the stored row nor the
// transaction's staged write.
func TestGetViewIsNotTheRowOrTheStagedWrite(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		if err := commitRows(p, e, "a", "AAAA"); err != nil {
			t.Error(err)
			return
		}
		tx := e.Begin(p)
		v, _, _ := tx.Get("a")
		copy(v, "XXXX")
		if v, _, _ := tx.Get("a"); string(v) != "AAAA" {
			t.Errorf("writing into a Get's value changed the row to %q", v)
		}
		if err := tx.Put("s", []byte("SSSS")); err != nil {
			t.Error(err)
		}
		v, _, _ = tx.Get("s")
		copy(v, "XXXX")
		if v, _, _ := tx.Get("s"); string(v) != "SSSS" {
			t.Errorf("writing into a Get's value changed the staged write to %q", v)
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		for k, want := range map[string]string{"a": "AAAA", "s": "SSSS"} {
			if got := readRow(p, e, k); got != want {
				t.Errorf("row %s = %q after commit, want %s", k, got, want)
			}
		}
	})
}

// Put copies its value before it first yields: the caller may reuse the
// buffer once Put returns, and two processes that take turns encoding into
// one buffer (a workload's row scratch) each commit their own value.
func TestPutCopiesItsValueBeforeItYields(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		buf := []byte("v1")
		tx := e.Begin(p)
		if err := tx.Put("k", buf); err != nil {
			t.Error(err)
		}
		copy(buf, "XX")
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		if got := readRow(p, e, "k"); got != "v1" {
			t.Errorf("k = %q, want v1: Put kept the caller's buffer", got)
		}

		shared := make([]byte, 4)
		done := p.Sim().NewEvent("writers")
		left := 2
		for _, kv := range [][2]string{{"ka", "AAAA"}, {"kb", "BBBB"}} {
			kv := kv
			p.Sim().Spawn(p.Domain(), "writer-"+kv[0], func(wp *sim.Proc) {
				defer func() {
					if left--; left == 0 {
						done.Fire()
					}
				}()
				tx := e.Begin(wp)
				copy(shared, kv[1])
				if err := tx.Put(kv[0], shared); err != nil {
					t.Errorf("put %s: %v", kv[0], err)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit %s: %v", kv[0], err)
				}
			})
		}
		done.Wait(p)
		for _, kv := range [][2]string{{"ka", "AAAA"}, {"kb", "BBBB"}} {
			if got := readRow(p, e, kv[0]); got != kv[1] {
				t.Errorf("%s = %q, want %s: the other writer's encoding reached it", kv[0], got, kv[1])
			}
		}
	})
}

// A transaction whose process is killed inside one of its calls, on an
// engine that stays up, gives back its locks and the lock request it was
// waiting in, and appends nothing: the next transaction on its keys
// commits. In a dead domain the unwinding releases nothing.
func TestKilledTransactionReleasesItsLocks(t *testing.T) {
	cases := []struct {
		name string
		// park is what the victim does after staging "hot": the kill lands
		// while it is parked in this call.
		park       func(tx Tx)
		killAt     time.Duration
		killDomain bool
	}{
		{"killed mid-put", func(tx Tx) { _ = tx.Put("warm", []byte("w")) }, 0, false},
		{"killed in a lock wait", func(tx Tx) { _, _, _ = tx.Get("held") }, 10 * time.Millisecond, false},
		{"killed with its domain", func(tx Tx) { _, _, _ = tx.Get("held") }, 10 * time.Millisecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRig(1)
			var e *Engine
			var appended uint64
			var nextErr error
			r.s.Spawn(r.plat.Domain(), "main", func(p *sim.Proc) {
				var err error
				if e, err = Open(p, r.plat, Config{NoDaemons: true}); err != nil {
					t.Errorf("open: %v", err)
					return
				}
				s := p.Sim()
				// holder keeps "held" X-locked for 50ms.
				s.Spawn(p.Domain(), "holder", func(hp *sim.Proc) {
					tx := e.Begin(hp)
					_ = tx.Put("held", []byte("h"))
					hp.Sleep(50 * time.Millisecond)
					_ = tx.Commit()
				})
				staged := s.NewEvent("staged")
				victim := s.Spawn(p.Domain(), "victim", func(vp *sim.Proc) {
					vp.Sleep(time.Millisecond)
					tx := e.Begin(vp)
					if err := tx.Put("hot", []byte("v")); err != nil {
						t.Errorf("victim put: %v", err)
					}
					staged.Fire()
					tc.park(tx)
					t.Error("victim survived its kill")
				})
				staged.Wait(p)
				p.Sleep(tc.killAt)
				appended = e.log.AppendedLSN()
				if tc.killDomain {
					p.Domain().Kill()
				}
				victim.Kill()
				p.Sleep(time.Millisecond) // the unwinding, not yet holder's commit
				if got := e.log.AppendedLSN(); got != appended {
					t.Errorf("the unwinding appended to the log: LSN %d → %d", appended, got)
				}
				p.Sleep(100 * time.Millisecond)
				nextErr = commitRows(p, e, "hot", "n", "held", "n")
			})
			if err := r.s.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.killDomain {
				if e.locks.locks[keyHash("hot")] == nil {
					t.Fatal("a domain kill's unwinding released the dead engine's locks")
				}
				return
			}
			if nextErr != nil {
				t.Fatalf("next commit on the killed transaction's keys: %v", nextErr)
			}
			if len(e.locks.locks) != 0 || len(e.locks.waiting) != 0 {
				t.Fatalf("lock table not empty: %d locks, %d waiting", len(e.locks.locks), len(e.locks.waiting))
			}
		})
	}
}

// A handle is dead once its transaction ends in Commit or Abort, or its
// process is killed in a lock wait, and it stays dead after a later Begin
// reuses the state behind it: every call returns ErrTxDone and leaves the
// new transaction's locks and staged writes as they were.
func TestTxDoneGuards(t *testing.T) {
	for _, end := range []string{"commit", "abort", "kill in a lock wait"} {
		t.Run(end, func(t *testing.T) {
			r := newTestRig(1)
			r.run(t, "t", func(p *sim.Proc, e *Engine) {
				var old Tx
				switch end {
				case "commit":
					old = e.Begin(p)
					_ = old.Put("k", []byte("old"))
					if err := old.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				case "abort":
					old = e.Begin(p)
					_ = old.Put("k", []byte("old"))
					old.Abort()
				default:
					// The victim waits for "held", which holder keeps
					// X-locked for 50ms, and is killed 10ms in.
					s := p.Sim()
					s.Spawn(p.Domain(), "holder", func(hp *sim.Proc) {
						tx := e.Begin(hp)
						_ = tx.Put("held", []byte("h"))
						hp.Sleep(50 * time.Millisecond)
						_ = tx.Commit()
					})
					victim := s.Spawn(p.Domain(), "victim", func(vp *sim.Proc) {
						old = e.Begin(vp)
						_ = old.Put("k", []byte("old"))
						_, _, _ = old.Get("held")
						t.Error("victim survived its kill")
					})
					p.Sleep(10 * time.Millisecond)
					victim.Kill()
					p.Sleep(time.Millisecond)
				}

				tx := e.Begin(p)
				if tx.s != old.s {
					t.Error("the next Begin did not reuse the ended transaction's state")
					return
				}
				if err := tx.Put("k", []byte("new")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				holdersOfK := func() []holder {
					if lk := e.locks.locks[keyHash("k")]; lk != nil {
						return slices.Clone(lk.holders)
					}
					return nil
				}
				locks, writes, holders := slices.Clone(tx.s.locks), slices.Clone(tx.s.writes), holdersOfK()

				if _, _, err := old.Get("k"); !errors.Is(err, ErrTxDone) {
					t.Errorf("get after %s: %v", end, err)
				}
				if err := old.Put("k", []byte("stale")); !errors.Is(err, ErrTxDone) {
					t.Errorf("put after %s: %v", end, err)
				}
				if err := old.Commit(); !errors.Is(err, ErrTxDone) {
					t.Errorf("commit after %s: %v", end, err)
				}
				old.Abort()

				if !slices.Equal(tx.s.locks, locks) || !slices.Equal(tx.s.writes, writes) ||
					!slices.Equal(holdersOfK(), holders) {
					t.Errorf("the dead handle changed the next transaction: locks %v → %v, writes %v → %v, holders of k %v → %v",
						locks, tx.s.locks, writes, tx.s.writes, holders, holdersOfK())
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("the next transaction's commit: %v", err)
				}
				if got := readRow(p, e, "k"); got != "new" {
					t.Errorf("k = %q, want new", got)
				}
			})
		})
	}
}
