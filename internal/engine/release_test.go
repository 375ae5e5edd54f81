//go:build go1.24

package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/disk"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

// TestClosedEngineKeepsOnlyItsCounters: an engine kept past its
// simulation's Close still answers Config, Stats and Store().Stats with
// what they read before it, and no longer pins its pool's pages or the
// drives below it.
func TestClosedEngineKeepsOnlyItsCounters(t *testing.T) {
	var (
		page  weak.Pointer[pagestore.Page]
		drive weak.Pointer[disk.Mem] // the log drive, sole owner of its media
	)
	// Built in a function of its own so that nothing on this frame refers
	// to the platform once it returns.
	s, e := func() (*sim.Sim, *Engine) {
		r := newTestRig(1)
		drive = weak.Make(r.plat.LogDisk().(*disk.Mem))
		var kept *Engine
		r.runCfg(t, "t", Config{}, func(p *sim.Proc, e *Engine) {
			kept = e
			tx := e.Begin(p)
			for i := 0; i < 100; i++ {
				if err := tx.Put(fmt.Sprintf("k%03d", i), []byte("value")); err != nil {
					t.Error(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
			if pg, err := e.Store().Get(p, 0); err != nil {
				t.Error(err)
			} else {
				page = weak.Make(pg)
			}
		})
		return r.s, kept
	}()
	if e == nil {
		t.Fatal("the engine never opened")
	}
	cfg, stats, storeStats := e.Config(), e.Stats(), e.Store().Stats()
	commits, checkpoints, hits := stats.Commits.Value(), stats.Checkpoints.Value(), storeStats.Hits.Value()

	s.Close()
	runtime.GC()
	if page.Value() != nil {
		t.Error("a pooled page outlived its simulation's Close")
	}
	if drive.Value() != nil {
		t.Error("the log drive (and its media) outlived its simulation's Close")
	}
	if e.Config() != cfg || e.Stats() != stats || e.Store().Stats() != storeStats {
		t.Fatal("Config, Stats or Store().Stats changed at Close")
	}
	if stats.Commits.Value() != commits || stats.Checkpoints.Value() != checkpoints || storeStats.Hits.Value() != hits {
		t.Fatalf("counters moved at Close: commits %d→%d, checkpoints %d→%d, hits %d→%d",
			commits, stats.Commits.Value(), checkpoints, stats.Checkpoints.Value(), hits, storeStats.Hits.Value())
	}
	if commits != 1 || hits == 0 {
		t.Fatalf("the engine read %d commits, %d pool hits: the test exercised nothing", commits, hits)
	}
}

// TestEngineKeepsNoCallerKey: once its transaction ends, the engine holds no
// key string a caller passed in. The index keeps a hash, the transaction's
// state drops its staged writes, and a lock entry or a lock request drops
// its key when it is freed for reuse. Two writers update the same rows and
// insert one each, so the second waits in a lock request on every row. At
// the parent the freed entries and requests kept their keys, and the index
// kept every key it gained.
func TestEngineKeepsNoCallerKey(t *testing.T) {
	const rows = 4
	var keys []weak.Pointer[byte]
	// put stages a write under a fresh copy of key: a string of the caller's
	// own, of 16 bytes or more so that no other allocation shares its block.
	put := func(tx Tx, key string) {
		k := strings.Clone(key)
		keys = append(keys, weak.Make(unsafe.StringData(k)))
		if err := tx.Put(k, []byte("v")); err != nil {
			t.Error(err)
		}
	}
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		tx := e.Begin(p)
		for i := 0; i < rows; i++ {
			_ = tx.Put(fmt.Sprintf("a row of the test %02d", i), []byte("v"))
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		var done []*sim.Event
		for w := 0; w < 2; w++ {
			ev := p.Sim().NewEvent("done")
			done = append(done, ev)
			p.Sim().Spawn(p.Domain(), fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				defer ev.Fire()
				tx := e.Begin(wp)
				for i := 0; i < rows; i++ {
					put(tx, fmt.Sprintf("a row of the test %02d", i))
				}
				put(tx, fmt.Sprintf("a row writer %d inserts", w))
				wp.Sleep(time.Millisecond)
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			})
		}
		for _, ev := range done {
			ev.Wait(p)
		}
		if waits := len(e.locks.freeReqs); waits == 0 {
			t.Error("no writer waited for a lock: the test exercised no lock request")
		}
		runtime.GC()
		for i, k := range keys {
			if k.Value() != nil {
				t.Errorf("key %d of %d a caller passed in outlived its transaction", i, len(keys))
			}
		}
	})
}
