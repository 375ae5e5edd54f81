package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// The schedule-preservation goldens: one seeded trial per topology, captured
// before the three trial runners and two campaign loops were folded into one
// engine. A refactor of the harness must not move one event of a seeded
// trial, so these pin outcomes, the trace's contract, its decoded schedule
// and the metrics JSON; a change that is meant to move the schedule (a new
// draw from the simulation's generator, a reordered spawn) re-captures them
// and says why. The failover golden rides on TestFailoverTrialForensics,
// which runs that trial anyway.
//
// All four were last re-captured when a recovered engine began serving
// before the checkpoint that folds its redone pages: every outcome is
// unchanged but the failover trial's takeover, and each trace's events
// before the fault are the same (At, Kind, Arg1, Arg2) as before; only what
// follows recovery moved. The metrics of the two unsharded machine trials
// did not move at all.

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3004 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 6007449})
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "1617d15f408c4a4101f904fbef311845cf61b2f95eccc0d26a97e40ac85b4d1c" ||
		me != "e99a5fc954f8dafe642e977cd49068a4e24d85f64436e49484b06e547c86dcb7" {
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
	if res.Err != nil || res.Acked != 466 || res.Missing != 0 || res.ReplLagMax != 2 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{
		Bound: 6007449, QuorumK: 1, RetainLimit: 64 << 20, RetainGrace: 520 * time.Millisecond,
	})
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "41e58c5fe9e44e7b409841536b69bb32a288054b48562ae0c71157e59f3231ab" ||
		me != "539885f72e56ddd7b9b97c1c2e31892de1980396028fefaf2bd0029a2ab4de6e" {
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
	if res.Err != nil || res.Acked != 7688 || res.Missing != 0 || !res.HadDump || res.DumpRetries != 0 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 4201113})
	if f := res.Artifacts.Flight; res.MonitorViolations != 0 || f == nil || f.Reason != "power-dc-loss" {
		t.Fatalf("monitor found %d violations, flight record %+v", res.MonitorViolations, f)
	}
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "363e867bd41dfdd2d6682ad70123e87f9b83f12cbb5edf0cfb30905fe1e52d06" ||
		me != "5f1e0eaf52725abc74a81b19524b1980bf64f1476b321e0bd43fd726b9840b76" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
