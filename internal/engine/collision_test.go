package engine

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/hv"
	"repro/internal/sim"
)

// TestKeyHashCollisionResolvesExactly: the heap index and the lock table
// know a row by its key's hash, and a hit is checked against the key, so two
// keys under one hash stay two rows and two locks. No pair of real keys
// collides, so the test plants one: the index's and the lock table's entry
// for key b's hash name key a's record and a's lock. Through Tx.Get and
// Tx.Put (an insert, an update in place and one that relocates the row), a
// follower's redo of each, and a rebuild, b resolves to its own row and a
// to its own; and b's lock does not wait behind a's.
func TestKeyHashCollisionResolvesExactly(t *testing.T) {
	const a, b = "alpha", "bravo"
	r := newTestRig(1)
	data := disk.NewMem(r.s, disk.MemConfig{Name: "data-follower", Persistent: true, Capacity: 1 << 18})
	r.m.AttachDevice(data)
	follower := hv.NewNative(r.m, r.plat.LogDisk(), data)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		f, err := Follow(p, follower, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("follow: %v", err)
			return
		}
		if err := commitRows(p, e, a, "a"); err != nil {
			t.Error(err)
			return
		}
		if err := f.CatchUp(p, -1); err != nil {
			t.Errorf("catch up: %v", err)
			return
		}
		ha, hb := keyHash(a), keyHash(b)
		e.heap.index[hb] = e.heap.index[ha]
		f.heap.index[hb] = f.heap.index[ha]
		if got := readRow(p, e, b); got != "<missing>" {
			t.Errorf("get %s before it was written: %q", b, got)
			return
		}
		// rows checks both keys on the leader, and on the follower once it
		// has redone the log so far.
		rows := func(step, wantB string) bool {
			if err := f.CatchUp(p, -1); err != nil {
				t.Errorf("%s: catch up: %v", step, err)
				return false
			}
			for _, h := range []*heap{e.heap, f.heap} {
				va, _, _ := h.getKey(p, a)
				vb, _, _ := h.getKey(p, b)
				if string(va) != "a" || string(vb) != wantB {
					t.Errorf("%s: %s = %.8q, %s = %.8q, want a and %.8q", step, a, va, b, vb, wantB)
					return false
				}
				if _, ok := h.spill[b]; !ok || len(h.spill) != 1 || h.index[hb] != h.index[ha] {
					t.Errorf("%s: %s is not alone in spill, or the planted entry moved", step, b)
					return false
				}
			}
			if got := readRow(p, e, b); got != wantB {
				t.Errorf("%s: Get(%s) = %.8q, want %.8q", step, b, got, wantB)
				return false
			}
			return true
		}
		big := string(bytes.Repeat([]byte{'B'}, 1000))
		for _, step := range []struct {
			name, val string
			moves     bool
		}{
			{"insert", "b", true}, {"update in place", "c", false}, {"relocating update", big, true},
		} {
			before := e.heap.spill[b]
			if err := commitRows(p, e, b, step.val); err != nil {
				t.Errorf("%s: %v", step.name, err)
				return
			}
			if !rows(step.name, step.val) {
				return
			}
			if moved := e.heap.spill[b] != before; moved != step.moves {
				t.Errorf("%s: %s's location moved: %v", step.name, b, moved)
				return
			}
		}

		// A rebuild that meets b's record under a hash already indexed sets it
		// aside and places it once the scan ends.
		if err := e.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		h := newHeap(e.store)
		h.index[hb] = e.heap.index[ha]
		if err := h.rebuild(p, e.heap.nextPage); err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		va, _, _ := h.getKey(p, a)
		vb, _, _ := h.getKey(p, b)
		if string(va) != "a" || string(vb) != big || h.spill[b] != e.heap.spill[b] || h.collided != nil {
			t.Errorf("rebuild: %s = %.8q, %s = %.8q at %#x (live record at %#x)", a, va, b, vb, h.spill[b], e.heap.spill[b])
			return
		}

		// Locks: while a transaction holds a's X lock, the lock table's entry
		// for b's hash is a's; b's writer does not wait, a's reader does.
		holder := e.Begin(p)
		if err := holder.Put(a, []byte("a")); err != nil {
			t.Error(err)
			return
		}
		e.locks.locks[hb] = e.locks.locks[ha]
		start := p.Now()
		var tookB, tookA time.Duration
		done := p.Sim().NewEvent("done")
		p.Sim().Spawn(p.Domain(), "b", func(bp *sim.Proc) {
			tx := e.Begin(bp)
			if err := tx.Put(b, []byte("d")); err != nil {
				t.Errorf("put %s: %v", b, err)
			}
			if lk := e.locks.spill[b]; lk == nil || lk.key != b || lk == e.locks.locks[ha] {
				t.Errorf("%s's lock is not an entry of its own in spill", b)
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %s: %v", b, err)
			}
			tookB = bp.Now().Sub(start)
		})
		p.Sim().Spawn(p.Domain(), "a", func(ap *sim.Proc) {
			readRow(ap, e, a)
			tookA = ap.Now().Sub(start)
			done.Fire()
		})
		p.Sleep(10 * time.Millisecond)
		if err := holder.Commit(); err != nil {
			t.Error(err)
			return
		}
		done.Wait(p)
		if tookB == 0 || tookB >= 10*time.Millisecond || tookA < 10*time.Millisecond {
			t.Errorf("%s's writer took %v and %s's reader %v; only the reader should wait for %s's holder", b, tookB, a, tookA, a)
		}
		delete(e.locks.locks, hb)
		if len(e.locks.locks) != 0 || len(e.locks.spill) != 0 {
			t.Errorf("lock table keeps %d entries and %d spilled", len(e.locks.locks), len(e.locks.spill))
		}
		if got := readRow(p, e, b); got != "d" {
			t.Errorf("%s = %q after the lock step, want d", b, got)
		}
	})
}
