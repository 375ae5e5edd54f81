package faultinject

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rig"
)

// TestFailoverSummaryCountsMonitorViolations: the failover fold used to pin
// artifacts on !Ok() only and kept no monitor total, so an exposure-bound or
// ack-without-evidence violation in an otherwise clean takeover neither kept
// its trace nor failed the campaign.
func TestFailoverSummaryCountsMonitorViolations(t *testing.T) {
	clean := TrialResult{Fault: LeaderPowerCut, Acked: 5, Failovers: 1, Unavailable: time.Second}
	flagged, later := clean, clean
	flagged.MonitorViolations = 1
	flagged.Artifacts = &Artifacts{Seed: 1}
	later.Artifacts = &Artifacts{Seed: 2}
	if !flagged.Ok() {
		t.Fatal("test premise: a monitor violation alone leaves the takeover Ok()")
	}
	var sum Summary
	sum.add(flagged)
	sum.add(later)
	if sum.MonitorViolations != 1 || !sum.Bad() {
		t.Fatalf("monitor violation not counted: %d, bad=%v", sum.MonitorViolations, sum.Bad())
	}
	if sum.Artifacts == nil || sum.Artifacts.Seed != 1 || sum.Artifacts.Trial != 0 {
		t.Fatalf("flagged trial's artifacts not pinned: %+v", sum.Artifacts)
	}
	if sum.Incomplete != 0 || sum.Errors != 0 || sum.Violations != 0 {
		t.Fatalf("clean takeovers miscounted: %s", sum)
	}
}

func failoverBase(fault Fault, trials int) CampaignConfig {
	return CampaignConfig{
		Rig:     rig.Config{Seed: 1234, AckPolicy: core.AckQuorum(1)},
		Fault:   fault,
		Trials:  trials,
		Clients: 4,
	}
}

// requireClean asserts a campaign's acceptance criteria: zero acked-quorum
// loss, zero split-brain, every trial a single complete takeover.
func requireClean(t *testing.T, sum Summary) {
	t.Helper()
	t.Log(sum.String())
	if sum.Errors > 0 {
		for _, tr := range sum.Trials {
			if tr.Err != nil {
				t.Fatalf("trial seed %d: %v", tr.Seed, tr.Err)
			}
		}
	}
	if sum.TotalAcked == 0 {
		t.Fatal("campaign acked nothing — proves nothing")
	}
	if sum.Violations != 0 || sum.TotalLost != 0 {
		t.Fatalf("acked-quorum loss: %s", sum)
	}
	if sum.SplitBrains != 0 {
		t.Fatalf("split-brain detected: %s", sum)
	}
	if sum.Incomplete != 0 {
		t.Fatalf("incomplete takeovers: %s", sum)
	}
	if sum.UnavailPercentile(0.5) == 0 {
		t.Fatal("no unavailability windows measured")
	}
}

func TestFailoverCampaignPowerCut(t *testing.T) {
	requireClean(t, RunCampaign(failoverBase(LeaderPowerCut, 2)))
}

func TestFailoverCampaignIsolation(t *testing.T) {
	requireClean(t, RunCampaign(failoverBase(LeaderIsolation, 2)))
}

func TestFailoverCampaignComposed(t *testing.T) {
	requireClean(t, RunCampaign(failoverBase(CoordAndLeader, 2)))
}

// TestFailoverTrialForensics checks that a traced trial captures the full
// artifact set and the ha.* counters move.
func TestFailoverTrialForensics(t *testing.T) {
	res := RunTrial(failoverBase(LeaderIsolation, 1), 77)
	if !res.Ok() {
		t.Fatalf("trial not clean: %+v err=%v", res, res.Err)
	}
	if res.Artifacts == nil || res.Artifacts.Trace == nil || res.Artifacts.Metrics == nil ||
		res.Artifacts.Monitor == nil || res.Artifacts.Flight == nil {
		t.Fatalf("artifact capture incomplete: %+v", res.Artifacts)
	}
	if res.Redirects == 0 {
		t.Fatal("no session ever redirected to the promoted leader")
	}
	// An isolated-then-healed leader retransmits its deposed epoch into
	// fenced stores: those must surface as fencing rejections.
	if res.FenceRejections == 0 {
		t.Fatal("healed deposed leader produced no fencing rejections")
	}
	if res.ReplayBytes == 0 || res.ReplayEntries == 0 {
		t.Fatalf("promotion replayed nothing: %+v", res)
	}
	// Schedule-preservation golden (see golden_test.go). Re-captured when
	// the promoted engine began serving before its post-redo checkpoint: the
	// takeover shrank from 849 ms to 509 ms, so the isolated leader has less
	// of its deposed epoch to retransmit into the fence once healed (396
	// rejections before).
	if res.Acked != 2157 || res.Unavailable != 509405152*time.Nanosecond || res.Redirects != 4 ||
		res.FenceRejections != 240 || res.ReplayBytes != 11370496 {
		t.Fatalf("seeded trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{
		Bound: 6007449, QuorumK: 1, RetainLimit: 64 << 20, RetainGrace: 520 * time.Millisecond,
	})
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "e5288dcf386d42d830d130cff067d1c2dc11815d83330636584f6ad1ea862afe" ||
		me != "1d135dc67b23b261e0f46fe42a05e9a68da7d2755a55d9aa43afd99429def71f" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
