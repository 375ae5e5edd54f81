package faultinject

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/rig"
	"repro/internal/workload"
)

func powerATX() power.PSUConfig { return power.PSUATXSpec }

// runCampaign runs a campaign whose config must be valid.
func runCampaign(t *testing.T, cfg CampaignConfig) Summary {
	t.Helper()
	sum, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func quickCampaign(mode rig.Mode, fault Fault, trials int) CampaignConfig {
	return CampaignConfig{
		Rig:            rig.Config{Seed: 42, Mode: mode},
		Fault:          fault,
		Trials:         trials,
		Clients:        2,
		InjectAfterMin: 100 * time.Millisecond,
		InjectAfterMax: 600 * time.Millisecond,
		NewWorkload: func() workload.Workload {
			return &workload.TPCC{Warehouses: 1, Districts: 2, Customers: 10, Items: 100}
		},
	}
}

func TestRapiLogSurvivesGuestCrashes(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.RapiLog, GuestCrash, 3))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before faults")
	}
	if sum.Violations != 0 || sum.TotalLost != 0 {
		t.Fatalf("RapiLog lost acked commits on guest crash: %s", sum)
	}
}

func TestRapiLogSurvivesPowerCuts(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.RapiLog, PowerCut, 3))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before faults")
	}
	if sum.Violations != 0 {
		t.Fatalf("RapiLog lost acked commits on power cut: %s", sum)
	}
}

// TestRapiLogKeepsAcksOfTheHoldUpWindow: the guest runs on for the PSU's
// hold-up window, and writes already in the buffer when the power-fail
// interrupt lands still complete and ack. Those acks are promises too. The
// audit once checked only acks made before injection, so a logger that kept
// acknowledging after the interrupt without buffering anything lost
// 120 788 of 501 886 acks over eight stress trials and passed with 0 lost.
func TestRapiLogKeepsAcksOfTheHoldUpWindow(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 3)
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{} }
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %v", sum.FirstErr())
	}
	if sum.TotalAckedAfterFault == 0 {
		t.Fatalf("no ack after the power-fail interrupt: the hold-up window went unaudited: %s", sum)
	}
	if sum.TotalLost != 0 || sum.Violations != 0 {
		t.Fatalf("RapiLog lost acks of the hold-up window: %s", sum)
	}
}

func TestShardedCampaignSurvivesPowerCuts(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 3)
	cfg.Rig.Shards = 2
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before faults")
	}
	if sum.Violations != 0 || sum.TotalLost != 0 {
		t.Fatalf("sharded RapiLog lost acked commits on power cut: %s", sum)
	}
}

func TestShardedCampaignRejectsNonPowerFaults(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, GuestCrash, 1)
	cfg.Rig.Shards = 4
	if res := RunTrial(cfg, 1); res.Err == nil {
		t.Fatal("sharded guest-crash trial ran; want config error")
	}
	cfg.Fault = PowerCut
	cfg.Rig.Shards = -2
	if res := RunTrial(cfg, 1); res.Err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestShardedTrialDeterminism(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Shards = 2
	a := RunTrial(cfg, 99)
	b := RunTrial(cfg, 99)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("trial errors: %v / %v", a.Err, b.Err)
	}
	if a.Acked != b.Acked || a.Missing != b.Missing || a.HadDump != b.HadDump {
		t.Fatalf("sharded trials with one seed diverged: %+v vs %+v", a, b)
	}
}

// TestShardedTrialCapturesArtifacts: a traced sharded trial used to return
// no capture at all (its runner had no capture code), so rapilog-fault
// -shards N -trace-out silently wrote nothing.
func TestShardedTrialCapturesArtifacts(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Shards = 2
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 7)
	if res.Err != nil || res.Acked == 0 {
		t.Fatalf("trial: %+v", res)
	}
	if res.Artifacts == nil || res.Artifacts.Trace == nil || res.Artifacts.Metrics == nil {
		t.Fatalf("traced sharded trial captured no artifacts: %+v", res.Artifacts)
	}
	if len(res.Artifacts.Trace.Events) == 0 {
		t.Fatal("captured trace is empty")
	}
}

func TestNativeSyncSurvivesPowerCuts(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.NativeSync, PowerCut, 2))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.Violations != 0 {
		t.Fatalf("native-sync lost acked commits: %s", sum)
	}
}

func TestNativeAsyncLosesCommitsOnCrash(t *testing.T) {
	cfg := quickCampaign(rig.NativeAsync, GuestCrash, 3)
	// Stress maximises the unsafe window: every txn is an immediate ack.
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{} }
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalLost == 0 {
		t.Fatalf("native-async lost nothing across %d crashes: %s", len(sum.Trials), sum)
	}
}

// slowDiskUnsafeCampaign builds the A3 regime: a slow drive whose drain
// loses the race against a commit-heavy workload, so the buffer genuinely
// fills to an unsafe bound before the plug is pulled.
func slowDiskUnsafeCampaign(trials int) CampaignConfig {
	cfg := quickCampaign(rig.RapiLog, PowerCut, trials)
	cfg.Rig.PSU = power.PSUMeasured
	cfg.Rig.HDD = disk.HDDConfig{RPM: 3600, SectorsPerTrack: 250}
	cfg.Rig.RapiLog = core.Config{MaxBuffer: 8 << 20, Unsafe: true}
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{ValueSize: 6000} }
	cfg.Clients = 16
	cfg.InjectAfterMin = 1500 * time.Millisecond
	cfg.InjectAfterMax = 2500 * time.Millisecond
	return cfg
}

func TestUnsafeOversizedBufferLosesData(t *testing.T) {
	// Ablation A3: break the sizing rule and the emergency dump either
	// tears mid-write or never lands — either way, acked commits die.
	sum := runCampaign(t, slowDiskUnsafeCampaign(3))
	if sum.Errors > 0 {
		t.Fatalf("campaign errors: %+v", sum.Trials)
	}
	if sum.TotalLost == 0 {
		t.Fatalf("oversized unsafe buffer lost nothing: %s", sum)
	}
	torn := false
	for _, tr := range sum.Trials {
		if tr.Missing > 0 && tr.HadDump && !tr.Torn {
			t.Fatalf("trial %d lost commits despite a complete dump: %+v", tr.Seed, tr)
		}
		if tr.Torn {
			torn = true
		}
	}
	if !torn {
		t.Log("note: no torn dump observed (losses came from dumps that never landed)")
	}
}

// TestSafeBoundSurvivesSlowDisk: the same hostile regime under the safe
// bound, with and without checkpoints before the cut. The buffer throttles
// at what the drive says it can dump, the dump gets the arm within one piece
// of whatever holds it (a drain run, a double-write batch) and ahead of
// everything queued, and it lands whole: no acked commit is lost and no dump
// is torn, on seed 42 and seeds 1–7.
func TestSafeBoundSurvivesSlowDisk(t *testing.T) {
	for _, every := range []time.Duration{0, 300 * time.Millisecond} {
		t.Run(fmt.Sprintf("checkpoint=%v", every), func(t *testing.T) {
			cfg := slowDiskUnsafeCampaign(1)
			cfg.Rig.RapiLog = core.Config{} // SafeBufferSize
			cfg.Rig.CheckpointEvery = every
			for _, seed := range []int64{42, 1, 2, 3, 4, 5, 6, 7} {
				res := RunTrial(cfg, seed)
				if res.Err != nil || res.Acked == 0 || !res.HadDump {
					t.Fatalf("seed %d: trial proves nothing: %+v", seed, res)
				}
				if res.Missing != 0 || res.Torn {
					t.Errorf("seed %d: safe bound lost %d of %d acked commits (torn dump %v)", seed, res.Missing, res.Acked, res.Torn)
				}
			}
		})
	}
}

func TestTrialDeterminism(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	a := RunTrial(cfg, 123)
	b := RunTrial(cfg, 123)
	if a.Acked != b.Acked || a.Missing != b.Missing || a.Torn != b.Torn {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Err != nil {
		t.Fatalf("trial error: %v", a.Err)
	}
}

func TestSummaryString(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.RapiLog, GuestCrash, 1))
	if !strings.HasPrefix(sum.String(), "rapilog/guest-crash: 1 trials") {
		t.Fatalf("summary %q", sum)
	}
	// The label reads the resolved config: a quorum policy is a machine with
	// the default two standbys, whatever the caller spelled.
	cfg := quickCampaign(rig.RapiLog, Partition, 1)
	cfg.Rig.AckPolicy = core.AckQuorum(1)
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if got := (Summary{Config: cfg}).String(); !strings.HasPrefix(got, "rapilog[2 standbys]/partition: ") {
		t.Fatalf("replicated summary %q", got)
	}
}

// TestSummaryCountsLossIndependentlyOfError: a trial that both errors out
// and loses data must show up in Violations AND Errors — the old code hid
// the loss behind the error flag.
func TestSummaryCountsLossIndependentlyOfError(t *testing.T) {
	var sum Summary
	sum.add(TrialResult{Acked: 10, Missing: 3, Err: fmt.Errorf("audit: boom")})
	sum.add(TrialResult{Acked: 5, Mismatched: 1})
	sum.add(TrialResult{Acked: 7})
	if sum.Violations != 2 {
		t.Fatalf("violations = %d, want 2 (loss must count even when the trial errored)", sum.Violations)
	}
	if sum.Errors != 1 {
		t.Fatalf("errors = %d, want 1", sum.Errors)
	}
	if sum.TotalLost != 3 {
		t.Fatalf("total lost = %d, want 3", sum.TotalLost)
	}
}

// TestNegativeInjectSpanIsConfigError: InjectAfterMax < InjectAfterMin used
// to reach rand.Int63n with a negative argument and panic mid-campaign. It
// must now surface as a plain config error from both entry points.
func TestNegativeInjectSpanIsConfigError(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.InjectAfterMin = 2 * time.Second
	cfg.InjectAfterMax = 500 * time.Millisecond
	res := RunTrial(cfg, 1)
	if res.Err == nil {
		t.Fatal("RunTrial accepted a negative inject span")
	}
	if sum, err := RunCampaign(cfg); err == nil || len(sum.Trials) != 0 {
		t.Fatalf("RunCampaign on a negative span: %+v, error %v", sum, err)
	}
}

// TestCampaignSizeIsValidated: Trials < 1 used to panic in the pool's
// make([]T, trials), and Clients < 1 ran trials that acked nothing and
// "passed".
func TestCampaignSizeIsValidated(t *testing.T) {
	for _, tc := range []struct {
		name            string
		trials, clients int
	}{
		{"negative trials", -1, 2},
		{"negative clients", 1, -3},
	} {
		cfg := quickCampaign(rig.RapiLog, PowerCut, tc.trials)
		cfg.Clients = tc.clients
		if sum, err := RunCampaign(cfg); err == nil || len(sum.Trials) != 0 {
			t.Errorf("%s: RunCampaign: %+v, error %v", tc.name, sum, err)
		}
		if res := RunTrial(cfg, 1); res.Err == nil {
			t.Errorf("%s: RunTrial accepted it", tc.name)
		}
	}
}

// TestConfigValidation is the fault × topology table: every row is a config
// no trial can run on, and must come back as a plain config error — naming
// the offending field — from both entry points, with nothing built.
// CrashReplicas -1 used to panic the operator process with a slice bound, and
// a value above Rig.Replicas was silently clamped.
func TestConfigValidation(t *testing.T) {
	replicaCrash := func(n int) CampaignConfig {
		cfg := quickCampaign(rig.RapiLog, ReplicaCrash, 1)
		cfg.Rig.Replicas = 2
		cfg.CrashReplicas = n
		return cfg
	}
	leader := func(mut func(*CampaignConfig)) CampaignConfig {
		cfg := failoverBase(LeaderPowerCut, 1)
		mut(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		want string // substring of the error
	}{
		{"unknown fault", quickCampaign(rig.RapiLog, "no-such-fault", 1), "unknown fault"},
		{"negative crash-replicas", replicaCrash(-1), "CrashReplicas -1"},
		{"more crash-replicas than standbys", replicaCrash(3), "CrashReplicas 3 exceeds the 2 standbys"},
		{"leader fault, negative trials", leader(func(c *CampaignConfig) { c.Trials = -1 }), "Trials -1"},
		{"leader fault, negative clients", leader(func(c *CampaignConfig) { c.Clients = -3 }), "Clients -3"},
		{"leader fault on a sharded machine", leader(func(c *CampaignConfig) { c.Rig.Shards = 2 }), "Rig.Shards = 2"},
		{"leader fault, quorum larger than the cluster", leader(func(c *CampaignConfig) { c.Rig.AckPolicy = core.AckQuorum(3) }), "AckPolicy.K 3 exceeds Replicas 2"},
		{"leader fault, negative replicas", leader(func(c *CampaignConfig) { c.Rig.Replicas = -1 }), "Replicas -1"},
		{"replica fault, no standbys", quickCampaign(rig.RapiLog, Partition, 1), "needs standbys"},
		{"leader fault composed", leader(func(c *CampaignConfig) { c.Compose = PowerCut }), "Compose only applies to replica faults"},
		{"sessions end inside the inject window", leader(func(c *CampaignConfig) {
			c.InjectAfterMax = sessionFor
		}), "InjectAfterMax 10s outlasts the 10s session pool"},
	} {
		if sum, err := RunCampaign(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) || len(sum.Trials) != 0 {
			t.Errorf("%s: RunCampaign: %d trials, error %v, want a config error with %q and no trial", tc.name, len(sum.Trials), err, tc.want)
		}
		if res := RunTrial(tc.cfg, 1); res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) {
			t.Errorf("%s: RunTrial: err %v, want a config error with %q", tc.name, res.Err, tc.want)
		}
	}
	// The largest legal outage still runs: every standby down, none clamped.
	if res := RunTrial(replicaCrash(2), 1); res.Err != nil || res.Acked == 0 {
		t.Errorf("CrashReplicas == Replicas: %+v", res)
	}
}

// TestNegativeWindowsAreConfigErrors: applyDefaults only replaces zero
// values, so an explicitly negative window used to sail through validation
// and silently collapse to a zero-length Sleep — a campaign that "passes"
// without its fault ever being active. Negative windows (and a negative
// InjectAfterMin) must surface as config errors.
func TestNegativeWindowsAreConfigErrors(t *testing.T) {
	neg := quickCampaign(rig.RapiLog, DiskError, 1)
	neg.FaultWindow = -300 * time.Millisecond
	if res := RunTrial(neg, 1); res.Err == nil {
		t.Fatal("RunTrial accepted a negative FaultWindow")
	}
	if sum, err := RunCampaign(neg); err == nil || len(sum.Trials) != 0 {
		t.Fatalf("RunCampaign on a negative FaultWindow: %+v, error %v", sum, err)
	}

	part := quickCampaign(rig.RapiLog, Partition, 1)
	part.Rig.Replicas = 2
	part.PartitionWindow = -time.Second
	if res := RunTrial(part, 1); res.Err == nil {
		t.Fatal("RunTrial accepted a negative PartitionWindow")
	}

	early := quickCampaign(rig.RapiLog, PowerCut, 1)
	early.InjectAfterMin = -time.Second
	if res := RunTrial(early, 1); res.Err == nil {
		t.Fatal("RunTrial accepted a negative InjectAfterMin")
	}
}

// TestZeroLengthInjectWindowRuns: InjectAfterMin == InjectAfterMax is a
// legitimate pinned injection instant, and the span-zero path must skip
// the jitter draw rather than hand rand.Int63n a zero argument (which
// panics). A whole campaign at a pinned instant must complete cleanly.
func TestZeroLengthInjectWindowRuns(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 2)
	cfg.InjectAfterMin = 400 * time.Millisecond
	cfg.InjectAfterMax = 400 * time.Millisecond
	sum := runCampaign(t, cfg)
	if sum.Errors > 0 {
		t.Fatalf("zero-length inject window errored: %+v", sum.Trials)
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked before the pinned-instant fault")
	}
	if sum.Violations != 0 {
		t.Fatalf("violations at a pinned injection instant: %s", sum)
	}
}

// TestUnknownFaultIsConfigError guards the fault-kind whitelist.
func TestUnknownFaultIsConfigError(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, Fault("meteor-strike"), 1)
	if res := RunTrial(cfg, 1); res.Err == nil {
		t.Fatal("RunTrial accepted an unknown fault kind")
	}
}

// TestRapiLogSurvivesTransientDiskErrors: acked ⊆ durable holds across a
// window of transient log-media write errors, and the backlog fully drains
// once the window closes — no stranded bytes, no lingering degraded mode.
func TestRapiLogSurvivesTransientDiskErrors(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.RapiLog, DiskError, 3))
	if sum.Violations != 0 || sum.Errors != 0 {
		t.Fatalf("campaign: %v (first error: %v)", sum, firstTrialErr(sum))
	}
	if sum.TotalAcked == 0 {
		t.Fatal("no transactions acked; campaign proves nothing")
	}
	for _, res := range sum.Trials {
		if res.BufferedAfter != 0 {
			t.Fatalf("seed %d: %d bytes still stranded after the fault cleared", res.Seed, res.BufferedAfter)
		}
		if res.Degraded {
			t.Fatalf("seed %d: still degraded after a transient window", res.Seed)
		}
	}
}

// TestRapiLogDegradesOnPermanentFaultWithoutLoss: a grown bad-sector range
// over the whole log partition forces pass-through; every previously acked
// commit must still be recoverable (the stranded buffer survives the guest
// crash — the hypervisor's copy is what the audit reads back).
func TestRapiLogDegradesOnPermanentFaultWithoutLoss(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, DiskError, 1)
	cfg.PermanentFault = true
	sum := runCampaign(t, cfg)
	if sum.Violations != 0 || sum.Errors != 0 {
		t.Fatalf("campaign: %v (first error: %v)", sum, firstTrialErr(sum))
	}
	if sum.DegradedTrials != 1 {
		t.Fatalf("degraded trials = %d, want 1 (permanent fault never degraded the logger?)", sum.DegradedTrials)
	}
}

// TestRapiLogSurvivesLatencyStorm: a storm delays everything but fails
// nothing; durability and drain-to-zero must hold exactly as in the calm.
func TestRapiLogSurvivesLatencyStorm(t *testing.T) {
	sum := runCampaign(t, quickCampaign(rig.RapiLog, LatencyStorm, 2))
	if sum.Violations != 0 || sum.Errors != 0 {
		t.Fatalf("campaign: %v (first error: %v)", sum, firstTrialErr(sum))
	}
}

// TestMediaFaultTrialDeterminism: same seed, same outcome — the fault layer
// draws from its own seeded stream.
func TestMediaFaultTrialDeterminism(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, DiskError, 1)
	a := RunTrial(cfg, 99)
	b := RunTrial(cfg, 99)
	if a.Acked != b.Acked || a.Missing != b.Missing || a.Degraded != b.Degraded || a.BufferedAfter != b.BufferedAfter {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func firstTrialErr(sum Summary) error {
	for _, res := range sum.Trials {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}
