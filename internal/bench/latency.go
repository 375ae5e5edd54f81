package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/workload"
)

// runE7: commit latency distribution under commit-stress. Shows the paper's
// core latency effect: a sync commit costs a disk rotation, a RapiLog
// commit costs a memory copy.
func runE7(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients := 8
	warmup, dur := time.Second, 10*time.Second
	if opts.Quick {
		warmup, dur = 200*time.Millisecond, 2*time.Second
	}
	table := metrics.NewTable("configuration", "tps", "p50", "p95", "p99", "max")
	rep := newReport("e7", "commit latency distribution",
		"commit-latency figure", table)

	for _, mode := range []rig.Mode{rig.NativeSync, rig.VirtSync, rig.RapiLog, rig.NativeAsync} {
		cfg := rig.Config{Seed: opts.Seed, Mode: mode, CheckpointEvery: 30 * time.Second}
		res, hist, _, err := measureWorkload(cfg, &workload.Stress{ValueSize: 120}, clients, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("e7 %s: %w", mode, err)
		}
		table.AddRow(string(mode),
			fmt.Sprintf("%.0f", res.TPS()),
			fmt.Sprint(hist.Quantile(0.50).Round(time.Microsecond)),
			fmt.Sprint(hist.Quantile(0.95).Round(time.Microsecond)),
			fmt.Sprint(hist.Quantile(0.99).Round(time.Microsecond)),
			fmt.Sprint(hist.Max().Round(time.Microsecond)))
		rep.Values[string(mode)+"/tps"] = res.TPS()
		rep.Values[string(mode)+"/p50_us"] = float64(hist.Quantile(0.50).Microseconds())
		rep.Values[string(mode)+"/p99_us"] = float64(hist.Quantile(0.99).Microseconds())
		opts.progressf("e7: %-12s p50=%v", mode, hist.Quantile(0.50).Round(time.Microsecond))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: sync p50 is rotational (milliseconds); rapilog p50 is the buffer",
		"copy (microseconds), within noise of async; rapilog tail bounded by throttling.")
	return rep, nil
}

// runE8: throughput and throttling across buffer bounds, in a regime where
// commit production outruns the drain (a slow drive), so the bound is live:
// tiny bounds force small drain batches whose positioning overhead eats
// bandwidth, larger bounds amortise it, and past the knee the drive — not
// the buffer — is the limit.
func runE8(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients := 8
	warmup, dur := time.Second, 10*time.Second
	if opts.Quick {
		warmup, dur = 200*time.Millisecond, 2*time.Second
	}
	caps := []int64{64 << 10, 256 << 10, 0 /* safe bound */, 4 << 20, 16 << 20}
	table := metrics.NewTable("buffer bound", "tps", "throttled writes", "ack p99", "peak occupancy")
	rep := newReport("e8", "buffer bound sweep and throttling",
		"buffer-sizing discussion", table)

	for _, c := range caps {
		unsafe := false
		if c > 0 {
			unsafe = true // caps above the slow disk's safe bound need the override
		}
		cfg := rig.Config{
			Seed: opts.Seed, Mode: rig.RapiLog,
			HDD:             disk.HDDConfig{RPM: 3600, SectorsPerTrack: 250},
			RapiLog:         core.Config{MaxBuffer: c, Unsafe: unsafe},
			CheckpointEvery: 30 * time.Second,
		}
		res, _, r, err := measureWorkload(cfg, &workload.Stress{ValueSize: 6000}, clients, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("e8 cap=%d: %w", c, err)
		}
		label := fmtBytes(c)
		if c == 0 {
			label = "safe(" + fmtBytes(r.Logger.MaxBuffer()) + ")"
		}
		st := r.Logger.RapiStats()
		table.AddRow(label,
			fmt.Sprintf("%.0f", res.TPS()),
			fmt.Sprintf("%d", st.Throttled.Value()),
			fmt.Sprint(st.AckLatency.Quantile(0.99).Round(time.Microsecond)),
			fmtBytes(st.Occupancy.Peak()))
		rep.Values[label+"/tps"] = res.TPS()
		rep.Values[label+"/throttled"] = float64(st.Throttled.Value())
		rep.Values[label+"/ack_p99_us"] = float64(st.AckLatency.Quantile(0.99).Microseconds())
		opts.progressf("e8: cap=%-18s %8.0f tps, %d throttled", label, res.TPS(), st.Throttled.Value())
	}
	rep.Notes = append(rep.Notes,
		"measured shape: under sustained overload every bound converges to drain bandwidth,",
		"because the log is sequential and small drain batches lose almost nothing to",
		"positioning; the bound instead governs throttling frequency and ack tail latency",
		"(burst absorption). The safe bound already sits in the flat region.")
	return rep, nil
}

// runA1: group commit interaction. A wide commit_delay is the classic
// software mitigation for sync-commit cost; RapiLog makes it unnecessary —
// and at one client, commit_delay actively hurts while RapiLog does not.
func runA1(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, dur := time.Second, 10*time.Second
	if opts.Quick {
		warmup, dur = 200*time.Millisecond, 2*time.Second
	}
	persDelay := engine.PGLike
	persDelay.Name = "pg+delay"
	persDelay.CommitDelay = 2 * time.Millisecond

	table := metrics.NewTable("configuration", "clients=1", "clients=16")
	rep := newReport("a1", "ablation: group commit (commit_delay) vs RapiLog",
		"this reproduction's ablation of the complexity-reduction claim", table)

	for _, row := range []struct {
		label string
		mode  rig.Mode
		pers  engine.Personality
	}{
		{"native-sync", rig.NativeSync, engine.PGLike},
		{"native-sync+delay", rig.NativeSync, persDelay},
		{"rapilog", rig.RapiLog, engine.PGLike},
	} {
		cells := []string{row.label}
		for _, clients := range []int{1, 16} {
			cfg := rig.Config{
				Seed: opts.Seed + int64(clients), Mode: row.mode, Personality: row.pers,
				CheckpointEvery: 30 * time.Second,
			}
			res, _, _, err := measureWorkload(cfg, &workload.Stress{ValueSize: 120}, clients, warmup, dur)
			if err != nil {
				return nil, fmt.Errorf("a1 %s c=%d: %w", row.label, clients, err)
			}
			cells = append(cells, fmt.Sprintf("%.0f", res.TPS()))
			rep.Values[fmt.Sprintf("%s/c=%d", row.label, clients)] = res.TPS()
			opts.progressf("a1: %-18s c=%-2d %8.0f tps", row.label, clients, res.TPS())
		}
		table.AddRow(cells...)
	}
	rep.Notes = append(rep.Notes,
		"measured shape: commit_delay roughly doubles 16-client sync throughput (wider",
		"batches) and costs little at 1 client on rotational media (the delay hides in the",
		"rotational wait); rapilog beats both by orders of magnitude with no tuning knob —",
		"the complexity-reduction claim.")
	return rep, nil
}
