package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and regression bounds are declared. The benchmark emits values
// by name and takes everything else from here, so a metric that is declared
// but not emitted (or the reverse) is caught on every run.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// The contract's limits on a benchmark declaration.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, sp.validate()
}

func (sp *benchSpec) validate() error {
	if n := len(sp.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("spec: %d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(sp.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(sp.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("spec: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("spec: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricDecl(nil), sp.EndToEnd...), sp.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("spec: metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > maxBound {
			return fmt.Errorf("spec: metric %s: bound %v outside 0..%v", m.Name, m.Bound, maxBound)
		}
	}
	return nil
}

func (sp *benchSpec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// decls returns the metric set a run with the given trace setting reports.
func (sp *benchSpec) decls(traced bool) []metricDecl {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// results is what a run measured, by metric name.
type results map[string]float64

// metricValue is one reported metric. RepSpread, present in the record file
// only, is (max − min) ÷ median over the run's own same-seed repetitions.
type metricValue struct {
	Value     float64  `json:"value"`
	Unit      string   `json:"unit"`
	RepSpread *float64 `json:"rep_spread,omitempty"`
}

// report pairs the measured values with their declared units and insists
// that the two sets of names are equal.
func (sp *benchSpec) report(traced bool, got results, spreads results) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	var missing []string
	for _, d := range sp.decls(traced) {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		mv := metricValue{Value: v, Unit: d.Unit}
		if s, ok := spreads[d.Name]; ok {
			mv.RepSpread = &s
		}
		out[d.Name] = mv
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return nil, fmt.Errorf("metrics declared in BENCHMARK.json but not emitted: %v; emitted but not declared: %v", missing, extra)
	}
	return out, nil
}
