//go:build !race

package faultinject

import (
	"reflect"
	"testing"
)

// Not under the race detector: with -race two cluster trials side by side do
// not finish in 20 minutes and grow past 16 GB (measured on
// TestFailoverCampaignPowerCut before this test existed; cause not isolated,
// see ROADMAP item 1). The pool's synchronisation is race-tested by
// TestParallelCampaignDeterminism: every topology runs on the one
// runSeeded.

// TestParallelCampaignDeterminismFailover is TestParallelCampaignDeterminism's
// property for the cluster topology: two leader-fault trials run 2-wide must
// equal the sequential run, retained artifacts included.
func TestParallelCampaignDeterminismFailover(t *testing.T) {
	mk := func(par int) Summary {
		cfg := failoverBase(LeaderPowerCut, 2)
		cfg.Parallel = par
		return runCampaign(t, cfg)
	}
	seq, par := mk(1), mk(2)
	if !reflect.DeepEqual(seq.Trials, par.Trials) {
		t.Fatalf("trials differ:\nseq: %+v\npar: %+v", seq.Trials, par.Trials)
	}
	if seq.String() != par.String() || seq.TotalAcked == 0 {
		t.Fatalf("aggregates differ or vacuous:\nseq: %s\npar: %s", seq, par)
	}
	sa, pa := seq.Artifacts, par.Artifacts
	if sa == nil || pa == nil || sa.Trial != pa.Trial || sa.Seed != pa.Seed {
		t.Fatalf("retained artifact differs: seq %+v, par %+v", sa, pa)
	}
	st, sm := artifactHashes(t, sa)
	pt, pm := artifactHashes(t, pa)
	if st != pt || sm != pm {
		t.Fatalf("retained artifacts serialise differently: trace %s vs %s, metrics %s vs %s", st, pt, sm, pm)
	}
}
