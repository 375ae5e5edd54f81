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

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3004 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 6007449})
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "47645cd3474a4e1c08fb751ac3cdc819dde85acb7f1c9072fb794da36becc166" ||
		me != "9f126881bdd9b64fb19f33aa22dc8cbab3a138da2452f02294170bb9dab389db" {
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
	if tr != "c3946f68a13ea4162c8a350d7d3c9df860ecf926538bb7df783268adbcc5466c" ||
		me != "635ade81b88583cf064cee674e6cf15023507a8649f3ddb21f3d836966264045" {
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
	if tr != "a626b899d37b0ba9b4293131c0db31a282f92e53f60b66cba19edb61facf0052" ||
		me != "d0b363cd8f080981121c6e6c075a9f52bcaf39000a6f99a88865b57b5752bd89" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
