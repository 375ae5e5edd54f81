//go:build go1.24

package engine

import (
	"fmt"
	"runtime"
	"testing"
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
