package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/workload"
)

// artifactHashes returns the SHA-256 of a capture's trace and metrics JSON.
func artifactHashes(t *testing.T, a *Artifacts) (trace, metrics string) {
	t.Helper()
	if a == nil || a.Trace == nil || a.Metrics == nil {
		t.Fatalf("traced trial captured no trace/metrics: %+v", a)
	}
	var b bytes.Buffer
	if err := a.Trace.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	trace = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	b.Reset()
	if err := a.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return trace, fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// The schedule-preservation goldens: one seeded trial per topology, captured
// before the three trial runners and two campaign loops were folded into one
// engine. A refactor of the harness must not move one event of a seeded
// trial, so these pin outcomes and the full trace + metrics JSON; a change
// that is meant to move the schedule (a new draw from the simulation's
// generator, a reordered spawn) re-captures them and says why. The failover
// golden rides on TestFailoverTrialForensics, which runs that trial anyway.

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3004 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "c58d5b0977dce4287b4e5a22746bd086da14cb6da50631941740ac6af9949efc" ||
		me != "9f126881bdd9b64fb19f33aa22dc8cbab3a138da2452f02294170bb9dab389db" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

func TestGoldenReplicaPartitionPlusPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLogReplica, Partition, 1)
	cfg.Compose = PowerCut
	cfg.Rig.Replicas = 2
	cfg.Rig.AckPolicy = core.AckQuorum(1)
	cfg.Rig.Trace = true
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{ValueSize: 2000} }
	res := RunTrial(cfg, 99)
	if res.Err != nil || res.Acked != 466 || res.Missing != 0 || res.ReplLagMax != 2 {
		t.Fatalf("trial moved: %+v", res)
	}
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "be1d37655a5b4400d1468cdcd40a0a77a7d2b38d10f1011b6146aa3bd8818512" ||
		me != "635ade81b88583cf064cee674e6cf15023507a8649f3ddb21f3d836966264045" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

func TestGoldenShardedPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Shards = 3
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 7688 || res.Missing != 0 || !res.HadDump || res.DumpRetries != 0 {
		t.Fatalf("trial moved: %+v", res)
	}
}
