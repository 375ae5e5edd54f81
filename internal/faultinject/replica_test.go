package faultinject

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/rig"
	"repro/internal/workload"
)

// doubleFaultCampaign is the A9 regime: slow spindle, measured PSU, a
// commit-heavy workload keeping the buffer near its bound — and then the
// double fault the local durability domain cannot absorb: a network
// partition that outlasts the hold-up window, a power cut at its midpoint,
// and a dump zone that fails every write. What survives is exactly what a
// standby already holds.
func doubleFaultCampaign(policy core.AckPolicy, trials int) CampaignConfig {
	return CampaignConfig{
		Rig: rig.Config{
			Seed:      42,
			Mode:      rig.RapiLog,
			Replicas:  2,
			AckPolicy: policy,
			PSU:       power.PSUMeasured,
			HDD:       disk.HDDConfig{RPM: 3600, SectorsPerTrack: 250},
		},
		Fault:   Partition,
		Compose: PowerCut,
		// The power dies at the window midpoint; the remaining second of
		// partition comfortably outlasts PSUMeasured's 250–380ms hold-up,
		// so nothing buffered escapes over the network post-cut either.
		PartitionWindow: 2 * time.Second,
		BreakDump:       true,
		Trials:          trials,
		Clients:         16,
		InjectAfterMin:  1500 * time.Millisecond,
		InjectAfterMax:  2500 * time.Millisecond,
		NewWorkload:     func() workload.Workload { return &workload.Stress{ValueSize: 6000} },
	}
}

// TestQuorumSurvivesPartitionPlusPowerFail is the A9 invariant: with
// quorum acks, every acknowledged commit is already held by a standby, so
// the simultaneous loss of the machine AND its dump zone loses nothing.
func TestQuorumSurvivesPartitionPlusPowerFail(t *testing.T) {
	sum := runCampaign(t, doubleFaultCampaign(core.AckQuorum(1), 3))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before faults")
	}
	if sum.Violations != 0 || sum.TotalLost != 0 {
		t.Fatalf("quorum acks lost commits under partition+power-cut+broken-dump: %s", sum)
	}
	if sum.MaxReplLag == 0 {
		t.Fatal("replication lag never observed — was anything shipped?")
	}
}

// TestLocalAcksLoseUnderSameDoubleFault is the ablation: AckLocal keeps
// acknowledging at buffer speed through the partition, so commits pile up
// that neither the (unreachable) standbys nor the (broken) dump zone hold
// when the power dies. Asserted both ways, like A3.
func TestLocalAcksLoseUnderSameDoubleFault(t *testing.T) {
	sum := runCampaign(t, doubleFaultCampaign(core.AckLocal(), 3))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalLost == 0 {
		t.Fatalf("local acks lost nothing under partition+power-cut+broken-dump — the quorum test proves nothing: %s", sum)
	}
}

// TestQuorumSurvivesReplicaCrashPlusPowerFail: same double fault, but the
// outage is one crashed standby instead of a full partition. quorum(1) of
// 2 replicas means the survivor still holds every acked commit.
func TestQuorumSurvivesReplicaCrashPlusPowerFail(t *testing.T) {
	cfg := doubleFaultCampaign(core.AckQuorum(1), 2)
	cfg.Fault = ReplicaCrash
	cfg.CrashReplicas = 1
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before faults")
	}
	if sum.Violations != 0 {
		t.Fatalf("quorum acks lost commits when one standby crashed: %s", sum)
	}
}

// TestWorkingDumpSurvivesPartitionPlusPowerFail: partition + power cut with
// a HEALTHY dump zone. The local durability domain is complete — drained
// sectors on the log partition, buffered ones in the dump — so recovery must
// not let the lagging standbys (a full second behind, thanks to the
// partition) roll drained sectors back to pre-partition contents. Every
// policy, including plain AckLocal, must lose nothing here: this is the "no
// worse than unreplicated RapiLog" regression guard. The small value size
// packs several commits per WAL block, which is exactly the shape where an
// unconditional replica replay loses data: the WAL tail block straddling the
// partition start is rewritten (and drained) after the standbys last saw it,
// and a stale replica image of that block erases the acked commits sealed
// into it. Seed 808 demonstrably lost commits that way before recovery
// became policy-aware.
func TestWorkingDumpSurvivesPartitionPlusPowerFail(t *testing.T) {
	for _, pol := range []core.AckPolicy{core.AckLocal(), core.AckQuorum(1)} {
		cfg := doubleFaultCampaign(pol, 3)
		cfg.BreakDump = false
		cfg.Rig.Seed = 808
		cfg.NewWorkload = func() workload.Workload { return &workload.Stress{ValueSize: 400} }
		sum := runCampaign(t, cfg)
		if sum.Errors > 0 {
			t.Fatalf("%v: campaign errors: %+v", pol, sum.Trials)
		}
		if sum.TotalAcked == 0 {
			t.Fatalf("%v: no transactions acked before faults", pol)
		}
		if sum.Violations != 0 || sum.TotalLost != 0 {
			t.Fatalf("%v: lost locally durable commits under partition+power-cut with a working dump: %s", pol, sum)
		}
	}
}

func TestReplicaFaultValidation(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, Partition, 1)
	if err := cfg.validate(); err == nil {
		t.Fatal("partition fault accepted on a machine with no standbys")
	}
	// A quorum policy cannot mean anything but standbys: it is a replicated
	// machine with the default two, not a request for a mode.
	cfg.Rig.AckPolicy = core.AckQuorum(1)
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil || cfg.Rig.Replicas != 2 {
		t.Fatalf("partition fault under a quorum policy: %v, %d standbys", err, cfg.Rig.Replicas)
	}
	cfg = quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Replicas = 2
	cfg.Compose = GuestCrash
	if err := cfg.validate(); err == nil {
		t.Fatal("Compose accepted on a non-replica fault")
	}
	cfg = quickCampaign(rig.RapiLog, Partition, 1)
	cfg.Rig.Replicas = 2
	cfg.Compose = DiskError
	if err := cfg.validate(); err == nil {
		t.Fatal("non-crash Compose accepted")
	}
}

// TestBarePartitionIsHarmless: a partition with no second fault must never
// cost a commit under any policy — the stream catches up after the heal.
func TestBarePartitionIsHarmless(t *testing.T) {
	for _, pol := range []core.AckPolicy{core.AckLocal(), core.AckQuorum(1)} {
		cfg := doubleFaultCampaign(pol, 2)
		cfg.Compose = ""
		cfg.BreakDump = false
		sum := runCampaign(t, cfg)
		if sum.Errors > 0 {
			t.Fatalf("%v: campaign errors: %+v", pol, sum.Trials)
		}
		if sum.Violations != 0 {
			t.Fatalf("%v: bare partition lost commits: %s", pol, sum)
		}
		if sum.TotalAcked == 0 {
			t.Fatalf("%v: nothing acked", pol)
		}
	}
}

// TestDoubleFaultCapturesFrozenFlightRecord: the A9 break-dump campaign,
// run with the flight recorder armed, must retain a post-mortem frozen at
// DC loss — and the online monitor must certify the quorum policy clean
// even through the double fault.
func TestDoubleFaultCapturesFrozenFlightRecord(t *testing.T) {
	cfg := doubleFaultCampaign(core.AckQuorum(1), 2)
	cfg.Rig.Flight = true
	cfg.Rig.TraceCapacity = 1 << 18
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 || sum.Violations != 0 {
		t.Fatalf("campaign not clean: %s", sum)
	}
	if sum.MonitorViolations != 0 {
		t.Fatalf("monitor flagged %d violations on a clean quorum campaign: %+v",
			sum.MonitorViolations, sum.Artifacts.Monitor)
	}
	art := sum.Artifacts
	if art == nil || art.Trace == nil || art.Metrics == nil || art.Monitor == nil {
		t.Fatalf("campaign retained no artifacts: %+v", art)
	}
	if art.Flight == nil {
		t.Fatal("flight recorder armed but no record retained")
	}
	if art.Flight.Reason != "power-dc-loss" {
		t.Fatalf("flight froze for %q, want power-dc-loss (the composed cut)", art.Flight.Reason)
	}
	if len(art.Flight.Events) == 0 || art.Flight.Monitor == nil {
		t.Fatalf("frozen record incomplete: %d events, monitor %v",
			len(art.Flight.Events), art.Flight.Monitor)
	}
}
