package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
)

const specPath = "../BENCHMARK.json"

// testSeconds is ≈1/20 of the declared run length: every workload, timed and
// traced, in well under ten seconds.
const testSeconds = 0.5

func TestSpecWithinLimits(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds is %d; the workload sizes are stated for %d", spec.RunSeconds, nominalSeconds)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, w := range spec.Workloads {
		if _, steady := steadyDefs[w.Name]; !steady && w.Name != "failover" && w.Name != "powercut" {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestEveryWorkloadEmitsItsDeclaredMetrics runs each workload small, timed
// and traced, and holds the output to BENCHMARK.json: measure fails when the
// emitted names differ from the declared ones, so a nil error is the check.
func TestEveryWorkloadEmitsItsDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	start := time.Now()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rec, err := measure(spec, w.Name, 1, testSeconds, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.LostAcked != 0 || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, lost %d, failed %d of %d: %v",
					w.Name, traced, rec.Correct, rec.LostAcked, rec.Failed, rec.Attempted, rec.Problems)
			}
			if want := len(spec.decls(traced)); len(rec.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), want)
			}
			for name, mv := range rec.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, mv.Value)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, mv.Value)
				}
			}
			if !traced {
				continue
			}
			if mv := rec.Metrics["obs.trace_dropped"]; mv.Value != 0 {
				t.Errorf("%s: trace ring dropped %v events", w.Name, mv.Value)
			}
			if got := rec.Detail["host_time_attributed_share"]; got < 0.95 {
				t.Errorf("%s: spans attribute %.1f%% of the run's host time to a layer, want ≥ 95%%", w.Name, 100*got)
			}
			if _, err := os.Stat(filepath.Join(out, w.Name+".spans.json")); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("all workloads at 1/20 scale took %v, budget 10s", d)
	}
}

// TestCompareVerdicts drives the comparator over synthetic records: within
// the bound, beyond it, too noisy to tell, and a rise in lost commits.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scaleOf map[string]float64, spread float64, lost int64) map[string]*side {
		set := make(map[string]*side)
		for _, w := range spec.Workloads {
			rec := record{Workload: w.Name, Correct: true, Attempted: 100, LostAcked: lost, Metrics: map[string]metricValue{}}
			for _, d := range spec.EndToEnd {
				f, ok := scaleOf[d.Name]
				if !ok {
					f = 1
				}
				sp := spread
				rec.Metrics[d.Name] = metricValue{Value: 100 * f, Unit: d.Unit, RepSpread: &sp}
			}
			set[w.Name] = &side{runs: []record{rec}, attempted: 100, lost: lost}
		}
		return set
	}
	base := mk(nil, 0.001, 0)
	cases := []struct {
		name string
		b    map[string]*side
		exit int
		want string
	}{
		{"same", mk(nil, 0.001, 0), 0, "no regression"},
		{"slower host within bound", mk(map[string]float64{"host_us_per_commit": 1.10}, 0.001, 0), 0, "no regression"},
		{"lower tps beyond bound", mk(map[string]float64{"virt_tps": 0.90}, 0.001, 0), 1, "REGRESSION"},
		{"higher tps", mk(map[string]float64{"virt_tps": 1.10}, 0.001, 0), 0, "improved"},
		{"too noisy to call", mk(map[string]float64{"virt_tps": 0.90}, 0.30, 0), 0, "unresolved"},
		{"lost commits", mk(nil, 0.001, 1), 1, "REGRESSION"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if got := compareRecords(spec, base, c.b, &buf); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, buf.String())
		}
		if !bytes.Contains(buf.Bytes(), []byte(c.want)) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, buf.String())
		}
	}
}

// histQuantile re-derives the histogram's bucket layout; hold it to the
// histogram's own answer.
func TestHistQuantileStaysInsideTheBucket(t *testing.T) {
	h := metrics.NewHistogram("t")
	for i := 1; i <= 10_000; i++ {
		h.Observe(time.Duration(i*i) * time.Nanosecond) // 1 ns .. 100 ms, skewed
	}
	prev := 0.0
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		low := h.Quantile(q)
		got := histQuantile(h, q)
		if got < float64(low) || got > float64(low+bucketWidth(low)) {
			t.Errorf("q=%v: %v outside its bucket [%v, %v]", q, got, low, low+bucketWidth(low))
		}
		if bucketWidth(low) > low/16 && low > 64 {
			t.Errorf("q=%v: bucket width %v at %v is wider than the layout allows", q, bucketWidth(low), low)
		}
		if got < prev {
			t.Errorf("q=%v: %v below the previous quantile %v", q, got, prev)
		}
		prev = got
	}
	if got := histQuantile(metrics.NewHistogram("empty"), 0.5); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	l := &spanLog{workload: "w"}
	l.spans = []span{
		{ID: 1, Parent: 0, Layer: harnessLayer, HostStartNs: 0, HostEndNs: 100},
		{ID: 2, Parent: 1, Layer: "a", HostStartNs: 10, HostEndNs: 60},
		{ID: 3, Parent: 1, Layer: "b", HostStartNs: 40, HostEndNs: 90}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "c", HostStartNs: 20, HostEndNs: 30},
	}
	rows, total := l.selfTimes()
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Layer] = r.SelfMs * 1e6
	}
	// Root: 100 minus the union [10,90) = 20; a: 50 − 10; b: 50; c: 10.
	want := map[string]float64{harnessLayer: 20, "a": 40, "b": 50, "c": 10}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-6 {
			t.Errorf("layer %s: self %v ns, want %v", layer, got[layer], w)
		}
	}
	if total != 100 {
		t.Errorf("total %d, want 100", total)
	}
}
