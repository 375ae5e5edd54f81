package faultinject

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/workload"
)

// TestParallelCampaignDeterminism is the property the worker pool must
// preserve: a campaign is a pure function of its config and seeds, so
// running the trials 8-wide must produce a Summary — per-trial results,
// aggregates, and the retained forensic artifacts — identical to the
// sequential run. The campaign is a replicated power-cut with tracing on,
// so artifact retention (first-bad-else-last) is exercised too.
func TestParallelCampaignDeterminism(t *testing.T) {
	mk := func(par int) Summary {
		return runCampaign(t, CampaignConfig{
			Rig: rig.Config{
				Seed:      99,
				Mode:      rig.RapiLog,
				Replicas:  2,
				AckPolicy: core.AckQuorum(1),
				Trace:     true,
			},
			Fault:          PowerCut,
			Trials:         6,
			Clients:        4,
			Parallel:       par,
			InjectAfterMin: 200 * time.Millisecond,
			InjectAfterMax: 600 * time.Millisecond,
			NewWorkload:    func() workload.Workload { return &workload.Stress{ValueSize: 2000} },
		})
	}
	seq := mk(1)
	par := mk(8)

	// Config echoes what the caller passed, so Parallel (and the workload
	// closure) legitimately differ; everything downstream must not.
	if len(seq.Trials) != len(par.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(seq.Trials), len(par.Trials))
	}
	for i := range seq.Trials {
		if !reflect.DeepEqual(seq.Trials[i], par.Trials[i]) {
			t.Fatalf("trial %d differs:\nseq: %+v\npar: %+v", i, seq.Trials[i], par.Trials[i])
		}
	}
	if seq.TotalAcked != par.TotalAcked || seq.TotalLost != par.TotalLost ||
		seq.Violations != par.Violations || seq.Errors != par.Errors ||
		seq.DegradedTrials != par.DegradedTrials || seq.DumpFailures != par.DumpFailures ||
		seq.MaxReplLag != par.MaxReplLag || seq.MonitorViolations != par.MonitorViolations {
		t.Fatalf("aggregates differ:\nseq: %s\npar: %s", seq, par)
	}
	if seq.TotalAcked == 0 {
		t.Fatal("no transactions acked: property vacuous")
	}

	// Artifact retention must pin the same trial and serialise identically.
	sa, pa := seq.Artifacts, par.Artifacts
	if sa == nil || pa == nil {
		t.Fatalf("artifacts missing: seq=%v par=%v", sa != nil, pa != nil)
	}
	if sa.Trial != pa.Trial || sa.Seed != pa.Seed {
		t.Fatalf("retained artifact differs: seq trial %d seed %d, par trial %d seed %d",
			sa.Trial, sa.Seed, pa.Trial, pa.Seed)
	}
	var sj, pj bytes.Buffer
	if err := sa.Trace.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := pa.Trace.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Fatalf("retained trace dumps differ (%d vs %d bytes)", sj.Len(), pj.Len())
	}
	sj.Reset()
	pj.Reset()
	if err := sa.Metrics.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := pa.Metrics.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Fatalf("retained metrics snapshots differ (%d vs %d bytes)", sj.Len(), pj.Len())
	}
}
