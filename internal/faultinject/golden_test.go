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
// All four were re-captured once when recovery began streaming its I/O (the
// log scan in doubling extents, a checkpoint's in-place writes one request
// per run of consecutive pages): every outcome is unchanged but the
// failover trial's takeover, and each trace's events before the fault are
// the same (At, Kind, Arg1, Arg2) as before; only recovery's I/O moved.

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3004 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 6007449})
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "72e0b620e600f5b238d036c32a07e99b9c3e969234e2c59032177c48e56aedd7" ||
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
	if tr != "2b23d9b2bc8e673a030e03319b4800d6d363ea5aebe9dff282bea92c4d538d00" ||
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
	if tr != "5ca3fea71acb5c86c3edd6d3ca4eed2453448c9dc8da045633e8eee6d11e1ead" ||
		me != "d30b58313ba3f2399be8affdc7204cb53bd8e94af81c23af480bf4249fde9570" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
