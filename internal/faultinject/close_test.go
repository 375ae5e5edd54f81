package faultinject

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// keeper keeps the engine each trial loads it with, past the trial's end:
// the benchmark's window into a trial does, to read its counters after.
type keeper struct {
	workload.Workload
	kept *[]*engine.Engine
}

func (k keeper) Load(p *sim.Proc, e *engine.Engine) error {
	*k.kept = append(*k.kept, e)
	return k.Workload.Load(p, e)
}

// TestRunTrialReleasesItsSimulation: a finished trial used to pin its whole
// simulated machine — every parked process goroutine and everything their
// stacks referenced (≈ +50 MiB and +2 goroutines per trial). RunTrial now
// closes its rig, so fifty trials leave what ten left. A caller that keeps
// each trial's engine keeps its counters only: the engines' pools, logs and
// platforms went with their simulations (≈ 1.2 MiB per kept trial while
// they did not).
func TestRunTrialReleasesItsSimulation(t *testing.T) {
	for _, keep := range []bool{false, true} {
		name := "dropped"
		if keep {
			name = "kept"
		}
		t.Run(name, func(t *testing.T) {
			var kept []*engine.Engine
			cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
			cfg.InjectAfterMin, cfg.InjectAfterMax = 50*time.Millisecond, 50*time.Millisecond
			cfg.NewWorkload = func() workload.Workload {
				if keep {
					return keeper{&workload.Stress{}, &kept}
				}
				return &workload.Stress{}
			}
			trials := func(from, to int) {
				for i := from; i < to; i++ {
					res := RunTrial(cfg, int64(1000+i))
					if res.Err != nil || res.Missing != 0 || res.Acked == 0 {
						t.Fatalf("trial %d: acked %d, missing %d, err %v", i, res.Acked, res.Missing, res.Err)
					}
				}
			}
			settled := func() (goroutines int, heap uint64) {
				runtime.GC()
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return runtime.NumGoroutine(), m.HeapAlloc
			}
			trials(0, 10)
			g0, h0 := settled()
			trials(10, 50)
			g1, h1 := settled()
			t.Logf("after 10 trials: %d goroutines, %.2f MiB live; after 50: %d goroutines, %.2f MiB live",
				g0, float64(h0)/(1<<20), g1, float64(h1)/(1<<20))
			if g1 != g0 {
				t.Errorf("goroutines grew %d → %d over 40 trials", g0, g1)
			}
			grew := float64(h1) - float64(h0)
			if keep {
				if len(kept) != 50 {
					t.Fatalf("kept %d engines of 50 trials", len(kept))
				}
				perTrial := grew / 40
				t.Logf("%.0f KiB live per kept trial", perTrial/(1<<10))
				if perTrial > 256<<10 {
					t.Errorf("post-GC heap grew %.0f KiB per kept engine, want <= 256 KiB", perTrial/(1<<10))
				}
				return
			}
			// Within 5 %, or within 1 MiB where 5 % of a near-empty heap is
			// only allocator noise; a leaked trial is tens of MiB.
			if grew > max(0.05*float64(h0), 1<<20) {
				t.Errorf("post-GC heap grew %.2f → %.2f MiB over 40 trials", float64(h0)/(1<<20), float64(h1)/(1<<20))
			}
		})
	}
}
