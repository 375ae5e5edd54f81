package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/rig"
)

// runA11: high availability. Three leader-loss campaigns against a 3-node
// epoch-fenced cluster under AckQuorum(1) — plug-pull, partition, and a
// composed coordinator-crash+plug-pull — each trial driving redirect-aware
// sessions through the takeover and auditing every acknowledged op on the
// promoted leader afterwards.
//
// The claims on trial: zero acked-quorum commits lost across a takeover
// (the census quorum N−K+1 intersects every ack quorum, and the winner's
// prefix is replayed before the new epoch opens), zero split-brain (the
// fence makes the deposed epoch unackable, so the single-writer-per-epoch
// invariant never fires), and a client-visible unavailability window under
// a second: failure detection — the dying leader's power-fail notice, or
// the heartbeat detector when no notice reaches the coordinator — then the
// promoted node's recovery streaming its log.
func runA11(opts Options) (*Report, error) {
	opts.applyDefaults()
	trials := 50
	if opts.Quick {
		trials = 2
	}

	cases := []struct {
		label string
		fault faultinject.Fault
	}{
		{"power-cut", faultinject.LeaderPowerCut},
		{"isolation", faultinject.LeaderIsolation},
		{"coordinator+power-cut", faultinject.CoordAndLeader},
	}

	table := metrics.NewTable("campaign", "trials", "acked commits", "lost",
		"split-brain", "unavail p50", "unavail p99")
	rep := newReport("a11", "high availability: epoch-fenced standby promotion",
		"this reproduction's HA extension (leader takeover over the replicated durability domain)", table)

	for _, c := range cases {
		sum, err := campaign("a11 "+c.label, faultinject.CampaignConfig{
			Rig:     rig.Config{Seed: opts.Seed, AckPolicy: core.AckQuorum(1)},
			Fault:   c.fault,
			Trials:  trials,
			Clients: 4,
		})
		if err != nil {
			return nil, err
		}
		p50, p99 := sum.UnavailPercentile(0.50), sum.UnavailPercentile(0.99)
		table.AddRow(c.label,
			fmt.Sprintf("%d", len(sum.Trials)),
			fmt.Sprintf("%d", sum.TotalAcked),
			fmt.Sprintf("%d", sum.TotalLost),
			fmt.Sprintf("%d", sum.SplitBrains),
			p50.Round(time.Millisecond).String(),
			p99.Round(time.Millisecond).String())
		rep.Values[c.label+"/acked"] = float64(sum.TotalAcked)
		rep.Values[c.label+"/lost"] = float64(sum.TotalLost)
		rep.Values[c.label+"/violations"] = float64(sum.Violations)
		rep.Values[c.label+"/split_brain"] = float64(sum.SplitBrains)
		rep.Values[c.label+"/incomplete"] = float64(sum.Incomplete)
		rep.Values[c.label+"/unavail_p50_ms"] = float64(p50.Milliseconds())
		rep.Values[c.label+"/unavail_p99_ms"] = float64(p99.Milliseconds())
		var redirects, fenceRej, replayB int64
		for _, tr := range sum.Trials {
			redirects += tr.Redirects
			fenceRej += tr.FenceRejections
			replayB += tr.Replay.Bytes
		}
		rep.Values[c.label+"/redirects"] = float64(redirects)
		rep.Values[c.label+"/fence_rejections"] = float64(fenceRej)
		if n := len(sum.Trials); n > 0 {
			rep.Values[c.label+"/replay_bytes_mean"] = float64(replayB) / float64(n)
		}
		opts.progressf("a11: %-22s %d trials, %d acked, %d lost, %d split-brain, unavail p50 %v",
			c.label, trials, sum.TotalAcked, sum.TotalLost, sum.SplitBrains,
			p50.Round(time.Millisecond))
	}

	rep.Notes = append(rep.Notes,
		"expected shape: every campaign loses nothing and never double-writes an epoch — the",
		"census quorum (N−K+1) provably intersects every ack quorum, and the fence makes the",
		"deposed epoch unackable before the new one opens; a plug-pull is detected at the dying",
		"leader's power-fail notice, so its window is mostly the promoted node's last follower",
		"round and the replay and scan of the tail past it (every standby redoes the stream as it",
		"arrives); an isolation, or a plug-pull nobody was watching, waits out the heartbeat",
		"detector first; an isolated-then-healed leader surfaces as fence rejections, not lost data.")
	return rep, nil
}
