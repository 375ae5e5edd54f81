package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/workload"
)

// runA10: sharded scale-out. N independent log domains on one machine under
// hash-partitioned TPC-B, provisioned per shard (4 cores, 4 clients, 4 TPC-B
// branches each, its own spindle), so ideal weak scaling is tps ∝ shards at
// a flat commit-ack p50. The one thing the shards share on the safety path
// is the PSU: every dump races the same hold-up window, so the per-shard
// bound shrinks with N and, past some N, the sizing rule refuses the machine.
//
// The measured fleet is on SSDs — the realistic scale-out hardware and well
// inside the budget; the last column asks the rule about the same fleet on
// 7200 rpm HDDs, where each further shard is charged what its drive says a
// dump costs before its first byte (WorstCaseWrite(0)), and N−1 of those eat
// the window.
func runA10(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, dur := 500*time.Millisecond, 4*time.Second
	if opts.Quick {
		warmup, dur = 50*time.Millisecond, 500*time.Millisecond
	}

	table := metrics.NewTable("shards", "tps", "commit ack p50", "per-shard bound", "same fleet on HDDs")
	rep := newReport("a10", "sharded scale-out: N log domains, one hold-up window",
		"this reproduction's sharding extension (weak scaling under the N-aware sizing rule)", table)

	var notes []string
	for _, n := range []int{1, 2, 4, 8} {
		key := fmt.Sprintf("shards=%d/", n)
		// The rule's verdict costs no simulated time, so quick mode asks it
		// at every fleet size and measures only two.
		hdd := "refused"
		r, err := rig.New(rig.Config{Seed: opts.Seed, Cores: 4 * n, Shards: n})
		if err != nil {
			notes = append(notes, fmt.Sprintf("%d HDD shards refused — %v", n, err))
		} else {
			hdd = fmtBytes(r.SafeBound())
			if n == 1 {
				notes = append(notes, fmt.Sprintf("each further HDD shard is charged %v of the window: its drive's WorstCaseWrite(0)",
					r.Disk.WorstCaseWrite(0).Round(time.Microsecond)))
			}
			r.Close()
		}
		rep.Values[key+"hdd_accepted"] = boolTo01(err == nil)
		if opts.Quick && n != 1 && n != 4 {
			continue
		}

		// One weak-scaling point: hash-partitioned TPC-B on an n-domain SSD
		// machine.
		cfg := rig.Config{Seed: opts.Seed, Cores: 4 * n, Disk: rig.DiskSSD, Shards: n}
		res, _, fleet, err := measureWorkload(cfg, &workload.TPCB{Branches: 4 * n, Tellers: 4, Accounts: 200}, 4, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("a10 shards=%d: %w", n, err)
		}
		tps, bound := res.TPS(), fleet.SafeBound()
		p50 := fleet.RollupHistogram("engine.commit.ack_latency").Quantile(0.5)
		table.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", tps),
			fmt.Sprint(p50.Round(100*time.Nanosecond)), fmtBytes(bound), hdd)
		rep.Values[key+"tps"] = tps
		rep.Values[key+"commit_p50_ns"] = float64(p50.Nanoseconds())
		rep.Values[key+"bound_bytes"] = float64(bound)
		opts.progressf("a10: shards=%d %8.0f tps, commit ack p50 %v", n, tps, p50)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: tps ∝ shards with the commit-ack p50 flat — shards share nothing on",
		"the commit path; scaling out moves only the per-shard bound (each further concurrent",
		"dump's wait for the arm and positioning comes off the hold-up budget).")
	rep.Notes = append(rep.Notes, notes...)
	return rep, nil
}
