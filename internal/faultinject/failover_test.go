package faultinject

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
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
	requireClean(t, runCampaign(t, failoverBase(LeaderPowerCut, 2)))
}

func TestFailoverCampaignIsolation(t *testing.T) {
	requireClean(t, runCampaign(t, failoverBase(LeaderIsolation, 2)))
}

func TestFailoverCampaignComposed(t *testing.T) {
	requireClean(t, runCampaign(t, failoverBase(CoordAndLeader, 2)))
}

// TestComposedFaultFallsBackToHeartbeat: the dying leader's power-fail
// notice reaches a crashed coordinator nowhere, so the composed fault's
// takeover waits out the coordinator's outage and then the heartbeat
// detector's 120 ms of silence. A plug-pull the coordinator watches, at the
// same instant of the same seed, is detected at the notice: it is spared
// more than the whole outage. Detected on silence, it was spared less, the
// hold-up the dying leader's agent kept answering through.
func TestComposedFaultFallsBackToHeartbeat(t *testing.T) {
	const failAfter = 120 * time.Millisecond
	composed := RunTrial(failoverBase(CoordAndLeader, 1), 1234)
	watched := RunTrial(failoverBase(LeaderPowerCut, 1), 1234)
	for _, res := range []TrialResult{composed, watched} {
		if !res.Ok() {
			t.Fatalf("%s trial not clean: %+v err=%v", res.Fault, res, res.Err)
		}
	}
	if floor := coordOutage + failAfter; composed.Unavailable < floor {
		t.Fatalf("composed fault unavailable %v, under the outage plus the detector's silence (%v): a lost notice counted",
			composed.Unavailable, floor)
	}
	if spared := composed.Unavailable - watched.Unavailable; spared <= coordOutage {
		t.Fatalf("watched plug-pull unavailable %v, composed %v: the notice spared %v, want more than the %v outage",
			watched.Unavailable, composed.Unavailable, spared, coordOutage)
	}
}

// journalTap hands a test the journal a trial's clients record into. Stress
// behind it runs as one client (Do), which a test that only counts acks
// does not mind.
type journalTap struct {
	workload.Workload
	j *workload.Journal
}

func (t *journalTap) Do(p *sim.Proc, e *engine.Engine, j *workload.Journal) error {
	t.j = j
	return t.Workload.Do(p, e, j)
}

// TestClusterTrialAckedIsWhatItAudited: a cluster trial audited every
// journaled ack but reported only those made before injection, an eighth of
// what it checked. Acked is now the journal the audit read.
func TestClusterTrialAckedIsWhatItAudited(t *testing.T) {
	cfg := failoverBase(LeaderPowerCut, 1)
	tap := &journalTap{Workload: &workload.Stress{ValueSize: 1000}}
	cfg.NewWorkload = func() workload.Workload { return tap }
	res := RunTrial(cfg, 1234)
	if !res.Ok() {
		t.Fatalf("trial not clean: %+v err=%v", res, res.Err)
	}
	if tap.j == nil || res.Acked != tap.j.Len() {
		t.Fatalf("Acked %d, but the audit checked the journal's %d", res.Acked, tap.j.Len())
	}
	if res.AckedAfterFault <= 0 || res.AckedAfterFault >= res.Acked {
		t.Fatalf("%d of %d acks after the cut: a takeover trial acks on both sides of it", res.AckedAfterFault, res.Acked)
	}
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
	// The trial ends at its audit, so the ring holds the run. Idling on to
	// the watchdog filled it with minutes of heartbeats: no tx_ack at all.
	events, err := res.Artifacts.Trace.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	for _, e := range events {
		if e.Kind == obs.EvTxAck {
			acks++
		}
	}
	// The winner's mirror cursor plus the suffix the promotion replayed
	// covers its store's applied prefix at the fence.
	rp := res.Replay
	if len(rp.Applied) == 0 {
		t.Fatalf("the promotion's winner held nothing: %+v", rp)
	}
	for e, seq := range rp.Applied {
		if rp.Through[e] < seq {
			t.Fatalf("promotion replay through %v does not cover the winner's applied prefix %v", rp.Through, rp.Applied)
		}
	}
	if acks == 0 {
		t.Fatalf("the retained trace holds no tx_ack among its %d events", len(events))
	}
	// Schedule-preservation golden (see golden_test.go). Acked is every
	// journaled ack, 27 029 of them made after the isolation. The heartbeat
	// detector's 120 ms of silence leaves the winner's follower caught up:
	// the promotion replays nothing past its mirror cursor.
	if res.Acked != 29186 || res.AckedAfterFault != 27029 || res.Unavailable != 169675088*time.Nanosecond || res.Redirects != 4 ||
		res.FenceRejections != 120 || res.Replay.Bytes != 0 || res.Replay.Lag != 0 {
		t.Fatalf("seeded trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{
		Bound: 6179100, QuorumK: 1, RetainLimit: 256 << 20, RetainGrace: 20 * time.Millisecond,
	})
	requireOneVerdict(t, res.Artifacts)
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "5294e43b1946792f215dadcb33b40917be3dfdeffbfedf189875131db9c941ea" ||
		me != "5e8e4048f7520cef4130bc58bc45c2f1c46745b207f481c6ab3c4739a1c56f31" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
