// Command benchmark is this repository's benchmark: six workloads measured
// on two clocks — virtual time, which is the paper's result, and host time,
// which is the simulator's cost — end to end and layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload tpcb_rapilog --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare <dir-or-file A> <dir-or-file B>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// nominalSeconds is the -seconds value the workload sizes are stated for.
const nominalSeconds = 10

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Int64("seed", 1, "workload seed; 1 for development, 2 is held out")
		seconds  = fs.Float64("seconds", nominalSeconds, "amount of simulated work: what takes about this long on the reference box")
		trace    = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark declaration")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for the run record and the span file")
		compare  = fs.Bool("compare", false, "compare two result sets: -compare A B (directories of run records, or single record files)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result sets")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if !spec.hasWorkload(*workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload <one of %v>, -seconds > 0, -trace 0|1\n", spec.Workloads)
		return 2
	}

	rec, err := measure(spec, *workload, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec.print(stderr)
	if err := rec.write(*outDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !rec.Correct {
		for _, p := range rec.Problems {
			fmt.Fprintln(stderr, "FAILED CHECK:", p)
		}
		return 1
	}
	// The result line: last on standard output, exactly these keys.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, mv := range rec.Metrics {
		line.Metrics[name] = value{mv.Value, mv.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// record is one run, as kept in the -out directory and read by -compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	LostAcked int64                  `json:"lost_acked"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail is context that is not a declared metric: counts behind the
	// ratios, CPU time beside wall time, the traced run's attribution.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// measure runs one workload in this process. The simulator runs exactly one
// process goroutine at a time by construction, so a second P only adds
// cross-core hand-offs: on the 2-core reference box the same TPC-B run cost
// 1 670–1 680 host ns per event at GOMAXPROCS=1 and 2 166–2 290 at 2.
func measure(spec *benchSpec, name string, seed int64, seconds float64, traced bool, outDir string) (*record, error) {
	runtime.GOMAXPROCS(1)
	scale := seconds / nominalSeconds
	var spans *spanLog
	root := 0
	if traced {
		spans = newSpanLog(name)
		root = spans.open(0, harnessLayer, "run", 0)
	}

	var out *outcome
	var err error
	switch name {
	case "failover":
		out, err = runFailover(seed, scale, spans, root)
	case "powercut":
		out, err = runPowercut(seed, scale, spans, root)
	default:
		def, ok := steadyDefs[name]
		if !ok {
			return nil, fmt.Errorf("workload %q is declared but not implemented", name)
		}
		out, err = runSteady(def, seed, scale, spans, root)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	rec := &record{
		Workload: name, Seed: seed, Seconds: seconds,
		Attempted: out.attempted, Failed: out.failed, LostAcked: out.lostAcked,
		Problems: out.problems, Detail: out.detail,
	}
	if traced {
		rec.Trace = 1
	}
	if rec.Attempted < 1 {
		rec.Problems = append(rec.Problems, "nothing was attempted")
	}
	rec.Correct = len(rec.Problems) == 0
	if !rec.Correct {
		return rec, nil // the metrics of a failed run are not reported
	}

	if traced {
		out.metrics["sim.goroutines_after"] = float64(runtime.NumGoroutine())
		out.metrics["lost_acked"] = float64(out.lostAcked)
		out.metrics["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
		if err := runProbes(seed, scale, spans, root, out.metrics); err != nil {
			return nil, err
		}
	} else {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	rec.Metrics, err = spec.report(traced, out.metrics, out.spreads)
	if err != nil {
		return nil, err
	}
	if traced {
		spans.close(root, 0)
		attributed, err := spans.write(outDir, seed, rec.Metrics)
		if err != nil {
			return nil, err
		}
		rec.Detail["host_time_attributed_share"] = attributed
		rec.Detail["spans"] = float64(len(spans.spans))
	}
	return rec, nil
}

func (rec *record) path(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace%d.json", rec.Workload, rec.Seed, rec.Trace))
}

func (rec *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(rec.path(dir), data, 0o644)
}

// print lists every metric by name with its unit, and the spread of the
// run's own repetitions where there is one.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed %d: attempted %d, failed %d, lost acked %d\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.LostAcked)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		spread := ""
		if mv.RepSpread != nil {
			spread = fmt.Sprintf("  (repetitions spread %.2f%%)", 100**mv.RepSpread)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-8s%s\n", name, mv.Value, mv.Unit, spread)
	}
	names = names[:0]
	for name := range rec.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  [%s = %g]\n", name, rec.Detail[name])
	}
}
