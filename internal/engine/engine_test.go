package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/hv"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/wal"
)

// testRig wires a native platform over fast persistent memory devices.
type testRig struct {
	s    *sim.Sim
	m    *power.Machine
	plat *hv.Native
}

func newTestRig(seed int64) *testRig {
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	logd := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 17})
	datad := disk.NewMem(s, disk.MemConfig{Name: "data", Persistent: true, Capacity: 1 << 18})
	m.AttachDevice(logd)
	m.AttachDevice(datad)
	return &testRig{s: s, m: m, plat: hv.NewNative(m, logd, datad)}
}

func (r *testRig) run(t *testing.T, name string, fn func(p *sim.Proc, e *Engine)) {
	t.Helper()
	r.runCfg(t, name, Config{NoDaemons: true}, fn)
}

func (r *testRig) runCfg(t *testing.T, name string, cfg Config, fn func(p *sim.Proc, e *Engine)) {
	t.Helper()
	r.s.Spawn(r.plat.Domain(), name, func(p *sim.Proc) {
		e, err := Open(p, r.plat, cfg)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		fn(p, e)
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestBasicPutGetCommit(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		tx := e.Begin(p)
		if err := tx.Put("alpha", []byte("one")); err != nil {
			t.Errorf("put: %v", err)
		}
		if v, ok, _ := tx.Get("alpha"); !ok || string(v) != "one" {
			t.Error("read-your-own-write failed")
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		tx2 := e.Begin(p)
		v, ok, err := tx2.Get("alpha")
		if err != nil || !ok || string(v) != "one" {
			t.Errorf("post-commit read: %q %v %v", v, ok, err)
		}
		_ = tx2.Commit()
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		tx := e.Begin(p)
		_ = tx.Put("k", []byte("committed"))
		_ = tx.Commit()

		tx2 := e.Begin(p)
		_ = tx2.Put("k", []byte("doomed"))
		tx2.Abort()

		tx3 := e.Begin(p)
		v, ok, _ := tx3.Get("k")
		if !ok || string(v) != "committed" {
			t.Errorf("aborted write leaked: %q %v", v, ok)
		}
		_ = tx3.Commit()
	})
}

func TestLargeValueRelocation(t *testing.T) {
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		small := bytes.Repeat([]byte{1}, 10)
		big := bytes.Repeat([]byte{2}, 500)
		tx := e.Begin(p)
		_ = tx.Put("grow", small)
		_ = tx.Commit()
		tx2 := e.Begin(p)
		_ = tx2.Put("grow", big)
		_ = tx2.Commit()
		tx3 := e.Begin(p)
		v, ok, _ := tx3.Get("grow")
		if !ok || !bytes.Equal(v, big) {
			t.Error("relocated row wrong")
		}
		_ = tx3.Commit()
		tx4 := e.Begin(p)
		if err := tx4.Put("huge", bytes.Repeat([]byte{3}, 20000)); !errors.Is(err, ErrValueTooLarge) {
			t.Errorf("oversized row: %v", err)
		}
		tx4.Abort()
	})
}

func TestIsolationWriteBlocksReader(t *testing.T) {
	r := newTestRig(1)
	var readerSawUncommitted bool
	var order []string
	r.s.Spawn(r.plat.Domain(), "main", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		seed := e.Begin(p)
		_ = seed.Put("acct", []byte("100"))
		_ = seed.Commit()

		r.s.Spawn(r.plat.Domain(), "writer", func(p *sim.Proc) {
			tx := e.Begin(p)
			_ = tx.Put("acct", []byte("200"))
			order = append(order, "writer-staged")
			p.Sleep(5 * time.Millisecond) // hold the X lock
			_ = tx.Commit()
			order = append(order, "writer-committed")
		})
		r.s.Spawn(r.plat.Domain(), "reader", func(p *sim.Proc) {
			p.Sleep(time.Millisecond) // let the writer stage first
			tx := e.Begin(p)
			v, _, err := tx.Get("acct")
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			order = append(order, "reader-read")
			if string(v) == "200" {
				// Fine: blocked until commit. But it must never be a dirty
				// read of the staged value before the commit completed.
				for _, o := range order {
					if o == "writer-committed" {
						_ = tx.Commit()
						return
					}
				}
				readerSawUncommitted = true
			}
			_ = tx.Commit()
		})
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if readerSawUncommitted {
		t.Fatal("dirty read: reader saw uncommitted value")
	}
}

func TestLockTimeoutResolvesDeadlock(t *testing.T) {
	r := newTestRig(1)
	var timeouts int
	r.s.Spawn(r.plat.Domain(), "main", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		seed := e.Begin(p)
		_ = seed.Put("a", []byte("1"))
		_ = seed.Put("b", []byte("2"))
		_ = seed.Commit()

		// Classic AB/BA deadlock.
		for i := 0; i < 2; i++ {
			first, second := "a", "b"
			if i == 1 {
				first, second = "b", "a"
			}
			r.s.Spawn(r.plat.Domain(), fmt.Sprintf("tx%d", i), func(p *sim.Proc) {
				tx := e.Begin(p)
				if err := tx.Put(first, []byte("x")); err != nil {
					tx.Abort()
					return
				}
				p.Sleep(time.Millisecond)
				if err := tx.Put(second, []byte("y")); err != nil {
					if errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrDeadlock) {
						timeouts++
					}
					tx.Abort()
					return
				}
				_ = tx.Commit()
			})
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if timeouts == 0 {
		t.Fatal("AB/BA deadlock never resolved by timeout")
	}
}

func TestSharedReadersRunConcurrently(t *testing.T) {
	r := newTestRig(1)
	var concurrent, peak int
	r.s.Spawn(r.plat.Domain(), "main", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		seed := e.Begin(p)
		_ = seed.Put("hot", []byte("v"))
		_ = seed.Commit()
		for i := 0; i < 4; i++ {
			r.s.Spawn(r.plat.Domain(), fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				tx := e.Begin(p)
				if _, _, err := tx.Get("hot"); err != nil {
					t.Errorf("get: %v", err)
				}
				concurrent++
				if concurrent > peak {
					peak = concurrent
				}
				p.Sleep(2 * time.Millisecond) // hold S lock
				concurrent--
				_ = tx.Commit()
			})
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("peak concurrent S holders = %d, shared locks not shared", peak)
	}
}

// crashRecoverRig puts the engine on HDDs under a real machine so we can
// crash and power-cycle it.
type crashRig struct {
	s        *sim.Sim
	m        *power.Machine
	hdd      *disk.HDD
	logPart  *disk.Partition
	dataPart *disk.Partition
	plat     *hv.Native
}

func newCrashRig(seed int64) *crashRig {
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, _ := disk.NewPartition(hdd, "log", 0, 1<<17)
	dataPart, _ := disk.NewPartition(hdd, "data", 1<<17, 1<<19)
	return &crashRig{s: s, m: m, hdd: hdd, logPart: logPart, dataPart: dataPart,
		plat: hv.NewNative(m, logPart, dataPart)}
}

func TestRecoveryAfterCleanRun(t *testing.T) {
	r := newCrashRig(1)
	r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			tx := e.Begin(p)
			_ = tx.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("val-%02d", i)))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Crash (kill the domain), reboot, verify everything.
	r.plat.Crash()
	r.plat.Reboot()
	r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			tx := e.Begin(p)
			v, ok, err := tx.Get(fmt.Sprintf("key-%02d", i))
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%02d", i) {
				t.Errorf("key-%02d lost after crash: %q %v %v", i, v, ok, err)
				return
			}
			_ = tx.Commit()
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestRedoOfATransactionLongerThanTwoExtents: recovery redoes one
// transaction whose update records fill more of the log than the scan's two
// extent buffers hold, so by its commit record the buffers that held its
// first updates have taken later extents. Its updates are redone from the
// copies CatchUp holds, every value as committed.
func TestRedoOfATransactionLongerThanTwoExtents(t *testing.T) {
	const (
		rows   = 400
		valLen = 3000 // 1.2 MB of update records: more than four 256 KiB extents
	)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, valLen/2) }
	r := newCrashRig(1)
	r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		tx := e.Begin(p)
		for i := 0; i < rows; i++ {
			if err := tx.Put(fmt.Sprintf("row-%03d", i), val(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	r.plat.Crash()
	r.plat.Reboot()
	r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		if got := e.Stats().RedoneTxns.Value(); got != 1 {
			t.Errorf("redid %d transactions, want 1", got)
		}
		tx := e.Begin(p)
		defer tx.Abort()
		for i := 0; i < rows; i++ {
			v, ok, err := tx.Get(fmt.Sprintf("row-%03d", i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Errorf("row-%03d after redo: %d bytes, found %v, %v", i, len(v), ok, err)
				return
			}
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// Recovery of a log whose tail, past a committed transaction, holds one
// more transaction's update record: without its commit record it is
// dropped; with a commit record but the redo record's reserved flag byte
// set, it is a corrupt record — Open fails, and its update is not applied.
func TestRecoveryLosesUncommittedKeepsCommitted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flag    byte // the tail update's flag byte
		commit  bool // the tail transaction's commit record is logged
		wantErr error
	}{
		{"uncommitted", 0, false, nil},
		{"reserved-flag", 1, true, errBadRedo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCrashRig(2)
			crashed := r.s.NewEvent("crashed")
			r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
				e, err := Open(p, r.plat, Config{NoDaemons: true})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				tx := e.Begin(p)
				_ = tx.Put("committed", []byte("yes"))
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
				tail := e.Begin(p)
				payload := updatePayload(nil, "tail", []byte("no"))
				payload[0] = tc.flag
				lsn, err := e.log.Append(p, wal.RecUpdate, tail.id, payload)
				if err == nil && tc.commit {
					lsn, err = e.log.Append(p, wal.RecCommit, tail.id, nil)
				}
				if err == nil {
					err = e.log.Force(p, lsn+1)
				}
				if err != nil {
					t.Errorf("logging the tail: %v", err)
				}
				crashed.Fire()
				r.plat.Crash()
			})
			r.s.Spawn(nil, "op", func(p *sim.Proc) {
				crashed.Wait(p)
				p.Sleep(time.Millisecond)
				r.plat.Reboot()
				r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
					if _, err := Open(p, r.plat, Config{NoDaemons: true}); !errors.Is(err, tc.wantErr) {
						t.Errorf("reopen: %v, want %v", err, tc.wantErr)
					}
					// Redo again, without the checkpoint a successful Open
					// folds it into, to see what it applied.
					e, err := Follow(p, r.plat, Config{NoDaemons: true})
					if err != nil {
						t.Errorf("follow: %v", err)
						return
					}
					if err := e.CatchUp(p, -1); !errors.Is(err, tc.wantErr) {
						t.Errorf("redo: %v, want %v", err, tc.wantErr)
					}
					if v, ok, _ := e.heap.getKey(p, "committed"); !ok || string(v) != "yes" {
						t.Error("committed transaction lost")
					}
					if _, ok := e.heap.index[keyHash("tail")]; ok {
						t.Error("the tail transaction's update was applied")
					}
				})
			})
			if err := r.s.RunFor(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAsyncCommitLosesRecentAcks(t *testing.T) {
	// The unsafe baseline: commits acked without forcing can vanish on a
	// crash. This asymmetry versus CommitSync is the paper's entire
	// motivation.
	r := newCrashRig(3)
	var ackedKeys []string
	crashed := r.s.NewEvent("crashed")
	r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true, CommitMode: CommitAsync})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			tx := e.Begin(p)
			k := fmt.Sprintf("k%d", i)
			_ = tx.Put(k, []byte("v"))
			if err := tx.Commit(); err == nil {
				ackedKeys = append(ackedKeys, k)
			}
		}
		crashed.Fire()
		r.plat.Crash()
	})
	lost := 0
	r.s.Spawn(nil, "op", func(p *sim.Proc) {
		crashed.Wait(p)
		p.Sleep(time.Millisecond)
		r.plat.Reboot()
		r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
			e, err := Open(p, r.plat, Config{NoDaemons: true})
			if err != nil {
				t.Errorf("reopen: %v", err)
				return
			}
			tx := e.Begin(p)
			for _, k := range ackedKeys {
				if _, ok, _ := tx.Get(k); !ok {
					lost++
				}
			}
			_ = tx.Commit()
		})
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(ackedKeys) != 10 {
		t.Fatalf("only %d acks", len(ackedKeys))
	}
	if lost == 0 {
		t.Fatal("async commit lost nothing across a crash — unsafe baseline not unsafe")
	}
}

func TestCheckpointTruncatesRedoWork(t *testing.T) {
	r := newCrashRig(4)
	r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			tx := e.Begin(p)
			_ = tx.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100))
			_ = tx.Commit()
		}
		if err := e.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		// A few more commits after the checkpoint.
		for i := 30; i < 35; i++ {
			tx := e.Begin(p)
			_ = tx.Put(fmt.Sprintf("k%d", i), []byte("post"))
			_ = tx.Commit()
		}
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r.plat.Crash()
	r.plat.Reboot()
	r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		// Only the 5 post-checkpoint transactions need replay.
		if n := e.Stats().RedoneTxns.Value(); n > 6 {
			t.Errorf("redone %d txns; checkpoint did not truncate redo", n)
		}
		tx := e.Begin(p)
		for i := 0; i < 35; i++ {
			if _, ok, _ := tx.Get(fmt.Sprintf("k%d", i)); !ok {
				t.Errorf("k%d missing after recovery", i)
			}
		}
		_ = tx.Commit()
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestPowerFailureDuringLoadSyncEngine(t *testing.T) {
	// Full-machine power cut during a synchronous-commit workload: every
	// acked commit must survive.
	r := newCrashRig(5)
	var acked []string
	r.s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		e, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; ; i++ {
			tx := e.Begin(p)
			k := fmt.Sprintf("k%04d", i)
			if err := tx.Put(k, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
				return
			}
			if err := tx.Commit(); err != nil {
				return
			}
			acked = append(acked, k)
			if i == 25 {
				r.m.CutPower()
			}
		}
	})
	verified := false
	r.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(30 * time.Second)
		r.m.RestorePower()
		r.plat.Reboot()
		r.s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
			e, err := Open(p, r.plat, Config{NoDaemons: true})
			if err != nil {
				t.Errorf("reopen: %v", err)
				return
			}
			tx := e.Begin(p)
			for _, k := range acked {
				if _, ok, _ := tx.Get(k); !ok {
					t.Errorf("acked key %s lost after power failure", k)
				}
			}
			_ = tx.Commit()
			verified = true
		})
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(acked) < 26 {
		t.Fatalf("only %d acks before cut", len(acked))
	}
	if !verified {
		t.Fatal("verification never ran")
	}
}

func TestPersonalityPresets(t *testing.T) {
	for name, p := range Personalities {
		if p.Name != name {
			t.Errorf("personality %q has Name %q", name, p.Name)
		}
		if p.CPUPerOp <= 0 || p.CPUPerTxn <= 0 || p.PageSize <= 0 {
			t.Errorf("personality %q has zero costs", name)
		}
	}
	if CXLike.CPUPerOp <= PGLike.CPUPerOp {
		t.Error("CX should be more CPU-hungry than PG")
	}
}

// TestFollowRoundsThenLeadIsOpen: an engine that follows a live log in
// rounds — Follow once, then CatchUp after every few commits, aborts and
// deletes of the writer — and then leads holds exactly what the writer and
// a cold Open of the same log hold, having redone as many transactions.
func TestFollowRoundsThenLeadIsOpen(t *testing.T) {
	r := newTestRig(21)
	fresh := func(name string) *hv.Native {
		d := disk.NewMem(r.s, disk.MemConfig{Name: name, Persistent: true, Capacity: 1 << 18})
		r.m.AttachDevice(d)
		return hv.NewNative(r.m, r.plat.LogDisk(), d)
	}
	follower, cold := fresh("data-follower"), fresh("data-cold")
	keys := func(n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("k%03d", i))
		}
		return out
	}(60)
	read := func(p *sim.Proc, e *Engine) map[string]string {
		tx := e.Begin(p)
		defer tx.Abort()
		out := map[string]string{}
		for _, k := range keys {
			if v, ok, err := tx.Get(k); err != nil {
				t.Errorf("get %s: %v", k, err)
			} else if ok {
				out[k] = string(v)
			}
		}
		return out
	}
	r.s.Spawn(r.plat.Domain(), "t", func(p *sim.Proc) {
		w, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f, err := Follow(p, follower, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("follow: %v", err)
			return
		}
		for i := 0; i < 120; i++ {
			tx := w.Begin(p)
			_ = tx.Put(keys[i%len(keys)], []byte(fmt.Sprintf("v%d", i)))
			if i%7 == 3 { // a row that outgrows its slot moves
				_ = tx.Put(keys[(i+11)%len(keys)], bytes.Repeat([]byte{byte(i)}, 100))
			}
			if i%9 == 0 {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			if i%10 == 0 {
				if err := f.CatchUp(p, -1); err != nil {
					t.Errorf("catch up: %v", err)
					return
				}
			}
		}
		if err := f.Lead(p, -1); err != nil {
			t.Errorf("lead: %v", err)
			return
		}
		c, err := Open(p, cold, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("cold open: %v", err)
			return
		}
		want, got, cl := read(p, w), read(p, f), read(p, c)
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(cl) != fmt.Sprint(want) {
			t.Errorf("writer %v\nfollower %v\ncold %v", want, got, cl)
		}
		if f.Stats().RedoneTxns.Value() != c.Stats().RedoneTxns.Value() {
			t.Errorf("follower redid %d transactions, a cold open %d", f.Stats().RedoneTxns.Value(), c.Stats().RedoneTxns.Value())
		}
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
}
