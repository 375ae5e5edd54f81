package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/workload"
)

// artifactHashes returns the SHA-256 of a capture's decoded schedule —
// Emitted, Dropped, the label table and every event — and of its metrics
// JSON. The schedule is hashed field by field, not as the dump's JSON, so a
// golden pins what the trial did and not how an artifact is laid out.
func artifactHashes(t *testing.T, a *Artifacts) (trace, metrics string) {
	t.Helper()
	if a == nil || a.Trace == nil || a.Metrics == nil {
		t.Fatalf("traced trial captured no trace/metrics: %+v", a)
	}
	events, err := a.Trace.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "emitted %d dropped %d\n", a.Trace.Emitted, a.Trace.Dropped)
	names := make([]string, 0, len(a.Trace.Labels))
	for n := range a.Trace.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "label %q %d\n", n, a.Trace.Labels[n])
	}
	for _, e := range events {
		fmt.Fprintf(h, "%d %s %d %d %d %d", int64(e.At), e.Kind, e.Span, e.Parent, e.Arg1, e.Arg2)
		if e.Dom != 0 {
			fmt.Fprintf(h, " dom %d", e.Dom)
		}
		fmt.Fprintln(h)
	}
	var b bytes.Buffer
	if err := a.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// requireContract fails t unless the capture's trace carries want as its
// contract.
func requireContract(t *testing.T, a *Artifacts, want obs.MonitorConfig) {
	t.Helper()
	if c := a.Trace.Contract; c == nil || *c != want {
		t.Fatalf("contract = %+v, want %+v", c, want)
	}
}

// requireOneVerdict fails t unless replaying the capture's trace against the
// contract it carries reaches the live monitor's verdict: every invariant is a
// function of the events.
func requireOneVerdict(t *testing.T, a *Artifacts) {
	t.Helper()
	events, err := a.Trace.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	live, replay := a.Monitor, obs.RunMonitor(events, *a.Trace.Contract)
	if live == nil || live.Total != replay.Total || !reflect.DeepEqual(live.ByKind, replay.ByKind) || !reflect.DeepEqual(live.Samples, replay.Samples) {
		t.Fatalf("live verdict %+v, replay %+v", live, replay)
	}
}

// The schedule-preservation goldens: one seeded trial per topology. A
// refactor of the harness must not move one event of a seeded trial, so these
// pin outcomes, the trace's contract, its decoded schedule and the metrics
// JSON; a change that is meant to move them (a new draw from the
// simulation's generator, a reordered spawn, a counter added or removed)
// re-captures them once and adds a line below saying why. The failover
// golden rides on TestFailoverTrialForensics, which runs that trial anyway.
//
// Re-captures, oldest first:
//   - a trial ends at its audit (machine schedules kept, Acked +1);
//   - a promotion wakes parked sessions (failover moves at the promotion);
//   - the monitor reads retention from trim events (no schedule moved);
//   - the coordinator acts on arrival, the scan reads ahead (later events move);
//   - rapilog.flushes removed (metrics hashes only);
//   - each disk's <disk>.flushes removed (metrics hashes only);
//   - the page store's pages.* counters registered (metrics hashes only,
//     keys added);
//   - the sizing rule asks the drive and dump zones are served first
//     (contracts' bounds; the sharded trial's metrics: a data write on
//     shard 1 yields the arm to the dump and re-positions after it).

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3005 || res.AckedAfterFault != 1 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 6179100})
	requireOneVerdict(t, res.Artifacts)
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "2498dc4b65e750d94078d390659e804615e81fb660b5ab14745dd3cfed3d5d43" ||
		me != "e98e3669812f1a5814206b2c42d8f9fa7485d833829ad9088e5ab05ce2e493c6" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

func TestGoldenReplicaPartitionPlusPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, Partition, 1)
	cfg.Compose = PowerCut
	cfg.Rig.Replicas = 2
	cfg.Rig.AckPolicy = core.AckQuorum(1)
	cfg.Rig.Trace = true
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{ValueSize: 2000} }
	res := RunTrial(cfg, 99)
	if res.Err != nil || res.Acked != 467 || res.AckedAfterFault != 1 || res.Missing != 0 || res.ReplLagMax != 2 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{
		Bound: 6179100, QuorumK: 1, RetainLimit: 256 << 20, RetainGrace: 20 * time.Millisecond,
	})
	requireOneVerdict(t, res.Artifacts)
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "86ea0653e4661ccbb2d1e034ea4eb8f186cd59d92d2edcc5d939497e635625fd" ||
		me != "26c87d77acda4205d1712ac660927dbf67e1b9aeaa832965ca374d43b24988fb" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

// The sharded trial runs traced, monitored and flight-recorded since its
// events name their shard; its outcome is the untraced one, so observing a
// sharded machine stays passive.
func TestGoldenShardedPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Shards = 3
	cfg.Rig.Trace, cfg.Rig.Flight = true, true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 7689 || res.AckedAfterFault != 1 || res.Missing != 0 || !res.HadDump || res.DumpRetries != 0 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 3995216})
	requireOneVerdict(t, res.Artifacts)
	if f := res.Artifacts.Flight; res.MonitorViolations != 0 || f == nil || f.Reason != "power-dc-loss" {
		t.Fatalf("monitor found %d violations, flight record %+v", res.MonitorViolations, f)
	}
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "176a7fb784b8933fdc8b2e178067d06019443379f760f348028787251061941b" ||
		me != "4605549168f9432be37d5315900a2e87f2c8b507d5f5a1cb2374d141754ca843" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
