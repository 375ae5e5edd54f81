package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadSet reads run records from a directory the benchmark wrote (every
// *.json except span files) or from one record file.
func loadSet(path string) ([]record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []record
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, rec)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return set, nil
}

// side is one result set's view of one workload: the timed runs only.
type side struct {
	runs      []record
	attempted int64
	failed    int64
	lost      int64
}

func byWorkload(set []record) map[string]*side {
	out := make(map[string]*side)
	for _, rec := range set {
		if rec.Trace != 0 {
			continue // end-to-end metrics are never taken from a traced run
		}
		s := out[rec.Workload]
		if s == nil {
			s = &side{}
			out[rec.Workload] = s
		}
		s.runs = append(s.runs, rec)
		s.attempted += rec.Attempted
		s.failed += rec.Failed
		s.lost += rec.LostAcked
	}
	return out
}

// values returns the metric's value in every run that has it, and the noise
// to hold against the bound: the quartile distance over runs when there are
// enough of them (the driver's measure), otherwise the widest spread any
// run saw among its own repetitions.
func (s *side) values(metric string) (xs []float64, noise float64) {
	for _, rec := range s.runs {
		mv, ok := rec.Metrics[metric]
		if !ok {
			continue
		}
		xs = append(xs, mv.Value)
		if mv.RepSpread != nil && *mv.RepSpread > noise {
			noise = *mv.RepSpread
		}
	}
	if len(xs) >= 4 {
		noise = iqrShare(xs)
	}
	return xs, noise
}

// compareSets applies BENCHMARK.json's bounds to B against A: one row per
// (workload, end-to-end metric). It returns 1 when any metric regressed
// beyond its bound, when failed_share or lost_acked rose, when an incorrect
// run is among the records, or when B lacks a workload A has.
func compareSets(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	setA, err := loadSet(pathA)
	if err == nil {
		var setB []record
		if setB, err = loadSet(pathB); err == nil {
			return compareRecords(spec, byWorkload(setA), byWorkload(setB), stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareRecords(spec *benchSpec, a, b map[string]*side, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tbound\tnoise\tverdict\t")
	bad := 0
	row := func(w, metric string, va, vb float64, delta, bound, noise, verdict string) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%s\t\n", w, metric, va, vb, delta, bound, noise, verdict)
	}
	for _, wd := range spec.Workloads {
		sa, sb := a[wd.Name], b[wd.Name]
		if sa == nil {
			continue
		}
		if sb == nil {
			row(wd.Name, "-", 0, 0, "", "", "", "MISSING in B")
			bad++
			continue
		}
		for _, d := range spec.EndToEnd {
			xa, na := sa.values(d.Name)
			xb, nb := sb.values(d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				row(wd.Name, d.Name, median(xa), median(xb), "", "", "", "MISSING")
				bad++
				continue
			}
			va, vb := median(xa), median(xb)
			delta := ratio(vb-va, va)
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			noise := max(na, nb)
			verdict := "ok"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				bad++
			case worse < -d.Bound:
				verdict = "improved"
			}
			row(wd.Name, d.Name, va, vb, fmt.Sprintf("%+.2f%%", 100*delta),
				fmt.Sprintf("%.0f%%", 100*d.Bound), fmt.Sprintf("%.2f%%", 100*noise), verdict)
		}
		// Any rise counts: these two have no tolerance.
		shareA, shareB := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		checks := []struct {
			name   string
			va, vb float64
		}{
			{fmt.Sprintf("failed_share (%d/%d → %d/%d)", sa.failed, sa.attempted, sb.failed, sb.attempted), shareA, shareB},
			{"lost_acked", float64(sa.lost), float64(sb.lost)},
		}
		for _, c := range checks {
			verdict := "ok"
			if c.vb > c.va {
				verdict = "REGRESSION"
				bad++
			}
			row(wd.Name, c.name, c.va, c.vb, "", "0%", "", verdict)
		}
		for _, rec := range append(append([]record(nil), sa.runs...), sb.runs...) {
			if !rec.Correct {
				row(wd.Name, fmt.Sprintf("seed %d", rec.Seed), 0, 0, "", "", "", "INCORRECT RUN")
				bad++
			}
		}
	}
	tw.Flush()
	var extra []string
	for name := range b {
		if a[name] == nil {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintf(stdout, "only in B: %v\n", extra)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressions or missing results\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression beyond the bounds")
	return 0
}
