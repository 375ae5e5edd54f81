package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/workload"
)

// runA4: dedicated vs shared log spindle. The classic deployment fix for
// sync-commit pain is a dedicated log disk (no arm contention with data
// traffic). This ablation shows (a) how much that buys the synchronous
// baseline, and (b) that RapiLog on one shared disk already beats the
// two-disk synchronous setup — hardware the verified buffer replaces.
func runA4(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients := 8
	warmup, dur := 2*time.Second, 10*time.Second
	if opts.Quick {
		warmup, dur = 500*time.Millisecond, 2*time.Second
	}

	table := metrics.NewTable("configuration", "log disk", "tps")
	rep := newReport("a4", "ablation: dedicated log spindle vs RapiLog",
		"this reproduction's ablation of the hardware-replacement claim", table)

	type cse struct {
		mode    rig.Mode
		logDisk rig.DiskKind // "" shares the data disk's spindle
	}
	for _, c := range []cse{
		{rig.NativeSync, ""},
		{rig.NativeSync, rig.DiskHDD},
		{rig.RapiLog, ""},
		{rig.RapiLog, rig.DiskHDD},
	} {
		// Commit-stress with aggressive checkpoints isolates exactly the
		// contention a dedicated log spindle removes: the disk arm torn
		// between synchronous log forces (or the RapiLog drain) and
		// checkpoint page writes.
		cfg := rig.Config{
			Seed:            opts.Seed,
			Mode:            c.mode,
			LogDiskKind:     c.logDisk,
			CheckpointEvery: time.Second,
		}
		res, _, _, err := measureWorkload(cfg, &workload.Stress{ValueSize: 512}, clients, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("a4 %s/log disk %q: %w", c.mode, c.logDisk, err)
		}
		diskLabel := "shared"
		if c.logDisk != "" {
			diskLabel = "dedicated"
		}
		key := fmt.Sprintf("%s/%s", c.mode, diskLabel)
		table.AddRow(string(c.mode), diskLabel, fmt.Sprintf("%.0f", res.TPS()))
		rep.Values[key] = res.TPS()
		opts.progressf("a4: %-12s %-9s %8.0f tps", c.mode, diskLabel, res.TPS())
	}
	rep.Notes = append(rep.Notes,
		"expected shape: a dedicated spindle helps native-sync (less arm contention) but",
		"rapilog on a single shared disk still beats the two-disk synchronous deployment —",
		"the verified buffer substitutes for the extra hardware.")
	return rep, nil
}
