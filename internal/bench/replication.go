package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/power"
	"repro/internal/rig"
	"repro/internal/workload"
)

// runA9: the replicated durability domain. Two stages.
//
// Safety: power-fail (and partition/replica-crash double-fault) campaigns
// across the three ack policies. The double fault — a partition that
// outlasts the PSU hold-up, the plug pulled at its midpoint, and a dump
// zone that fails every write — removes the local durability domain
// entirely; only commits a standby already holds survive. AckLocal keeps
// acking through the partition and demonstrably loses; AckQuorum stalls
// acks instead and loses nothing.
//
// Cost: the guest-visible commit latency of each policy — local acks at
// buffer-copy speed, quorum/remote acks paying one fabric round trip.
func runA9(opts Options) (*Report, error) {
	opts.applyDefaults()
	trials := 12
	warmup, dur := time.Second, 10*time.Second
	if opts.Quick {
		trials = 2
		warmup, dur = 200*time.Millisecond, 2*time.Second
	}

	// The A3 regime: slow spindle + measured PSU + commit-heavy load, so
	// the buffer genuinely carries acked-but-undrained commits when the
	// fault lands.
	baseRig := func(policy core.AckPolicy) rig.Config {
		return rig.Config{
			Seed:      opts.Seed,
			Mode:      rig.RapiLog,
			Replicas:  2,
			AckPolicy: policy,
			PSU:       power.PSUMeasured,
			HDD:       disk.HDDConfig{RPM: 3600, SectorsPerTrack: 250},
		}
	}
	cases := []struct {
		label     string
		policy    core.AckPolicy
		fault     faultinject.Fault
		compose   faultinject.Fault
		breakDump bool
		crash     int
	}{
		{"local/power-cut", core.AckLocal(), faultinject.PowerCut, "", false, 0},
		{"quorum1/power-cut", core.AckQuorum(1), faultinject.PowerCut, "", false, 0},
		{"remote1/power-cut+dump-broken", core.AckRemoteOnly(1), faultinject.PowerCut, "", true, 0},
		{"local/partition+cut+dump-broken", core.AckLocal(), faultinject.Partition, faultinject.PowerCut, true, 0},
		{"quorum1/partition+cut+dump-broken", core.AckQuorum(1), faultinject.Partition, faultinject.PowerCut, true, 0},
		{"quorum1/replica-crash+cut", core.AckQuorum(1), faultinject.ReplicaCrash, faultinject.PowerCut, false, 1},
	}
	rep := campaignReport("a9", "replicated durability: quorum acks under partition + power-fail",
		"this reproduction's replication extension (remote standbys as the alternative durability domain)")
	for _, c := range cases {
		cfg := faultinject.CampaignConfig{
			Rig:             baseRig(c.policy),
			Fault:           c.fault,
			Compose:         c.compose,
			PartitionWindow: 2 * time.Second,
			BreakDump:       c.breakDump,
			CrashReplicas:   c.crash,
			Trials:          trials,
			Clients:         16,
			InjectAfterMin:  1500 * time.Millisecond,
			InjectAfterMax:  2500 * time.Millisecond,
			NewWorkload:     func() workload.Workload { return &workload.Stress{ValueSize: 6000} },
		}
		sum, err := addCampaign(rep, opts, c.label, cfg)
		if err != nil {
			return nil, err
		}
		rep.Values[c.label+"/repl_lag_max"] = float64(sum.MaxReplLag)
		rep.Values[c.label+"/dump_failures"] = float64(sum.DumpFailures)
	}

	// Latency stage: what each policy charges the commit path in a healthy
	// cluster.
	for _, pc := range []struct {
		label  string
		policy core.AckPolicy
	}{
		{"local", core.AckLocal()},
		{"quorum1", core.AckQuorum(1)},
		{"remote1", core.AckRemoteOnly(1)},
	} {
		cfg := baseRig(pc.policy)
		cfg.HDD = disk.HDDConfig{} // stock disk: measure the policy, not the spindle
		cfg.PSU = power.PSUConfig{}
		cfg.CheckpointEvery = 30 * time.Second
		res, hist, _, err := measureWorkload(cfg, &workload.Stress{ValueSize: 120}, 8, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("a9 latency %s: %w", pc.label, err)
		}
		rep.Values["latency/"+pc.label+"/tps"] = res.TPS()
		rep.Values["latency/"+pc.label+"/p50_us"] = float64(hist.Quantile(0.50).Microseconds())
		rep.Values["latency/"+pc.label+"/p99_us"] = float64(hist.Quantile(0.99).Microseconds())
		rep.Notes = append(rep.Notes, fmt.Sprintf("latency %-8s p50=%v p99=%v (%.0f tps)",
			pc.label, hist.Quantile(0.50).Round(time.Microsecond),
			hist.Quantile(0.99).Round(time.Microsecond), res.TPS()))
		opts.progressf("a9: latency %-8s p50=%v", pc.label, hist.Quantile(0.50).Round(time.Microsecond))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: every policy survives a plain power cut; under partition+cut with a",
		"broken dump zone only quorum/remote survive — local acks made during the partition",
		"have no surviving copy; quorum acks cost one fabric round trip (~2×200µs) over local.")
	return rep, nil
}
