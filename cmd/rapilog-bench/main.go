// Command rapilog-bench regenerates the paper's evaluation: every table
// and figure (experiments e1–e10) plus this reproduction's ablations
// (a1–a3). Each experiment prints an aligned table and notes describing
// the expected shape.
//
// Usage:
//
//	rapilog-bench                 # run everything, full size
//	rapilog-bench -exp e1,e6      # selected experiments
//	rapilog-bench -quick          # small sweeps (seconds, not minutes)
//	rapilog-bench -list           # list experiment ids and titles
//	rapilog-bench -metrics-out values.json -trace-out trace.json
//	rapilog-bench -bench-json auto            # run the hot-path perf suite,
//	                                          # write BENCH_<date>.json
//	rapilog-bench -bench-json out.json -bench-label after
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick   = flag.Bool("quick", false, "shrink sweeps and durations")
		seed    = flag.Int64("seed", 1, "base deterministic seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		verbose = flag.Bool("v", true, "print per-data-point progress")

		metricsOut = flag.String("metrics-out", "", "write every experiment's named values as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write a commit-lifecycle trace of a representative rapilog run as JSON to this file")
		flightOut  = flag.String("flight-out", "", "write a representative run's flight record (frozen at run end) as JSON to this file")

		benchJSON  = flag.String("bench-json", "", "run the hot-path perf suite and write its JSON here ('auto' → BENCH_<date>.json); skips the experiments")
		benchLabel = flag.String("bench-label", "", "label recorded in the perf-suite JSON (e.g. 'baseline')")
	)
	flag.Parse()

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *benchLabel, *quick, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *list {
		for _, exp := range rapilog.Experiments {
			fmt.Printf("%-4s %s\n", exp.ID, exp.Title)
		}
		return
	}

	var ids []string
	if *expList == "all" {
		for _, exp := range rapilog.Experiments {
			ids = append(ids, exp.ID)
		}
	} else {
		ids = strings.Split(*expList, ",")
	}

	opts := rapilog.ExperimentOptions{Quick: *quick, Seed: *seed}
	if *verbose {
		opts.Progress = os.Stderr
	}

	start := time.Now()
	values := make(map[string]map[string]float64)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		exp := rapilog.ExperimentByID(id)
		if exp == nil {
			fmt.Fprintf(os.Stderr, "rapilog-bench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		expStart := time.Now()
		rep, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapilog-bench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		rep.Render(os.Stdout)
		values[rep.ID] = rep.Values
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", id, time.Since(expStart).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "[total %v]\n", time.Since(start).Round(time.Millisecond))

	if err := cliflags.WriteJSON(*metricsOut, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(values)
	}); err != nil {
		fatalf("writing %v", err)
	}
	if *traceOut != "" || *flightOut != "" {
		if err := dumpRepresentativeTrace(*traceOut, *flightOut, *seed); err != nil {
			fatalf("%v", err)
		}
	}
}

// runBenchJSON executes the fixed hot-path perf suite and serialises the
// result — the benchmark trajectory perf PRs commit before/after pairs of.
func runBenchJSON(path, label string, quick bool, seed int64) error {
	suite, err := rapilog.RunPerfSuite(label, quick, seed, os.Stderr)
	if err != nil {
		return err
	}
	if path == "auto" {
		path = "BENCH_" + suite.Date + ".json"
	}
	if err := cliflags.WriteJSON(path, suite.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[perf suite written to %s]\n", path)
	return nil
}

// dumpRepresentativeTrace runs a short traced rapilog deployment under the
// stress workload and writes its commit-lifecycle trace — the sample later
// perf work diffs stage latencies against — and, when flightPath is set,
// the run's flight record.
func dumpRepresentativeTrace(path, flightPath string, seed int64) error {
	dep, err := rapilog.New(rapilog.Config{Seed: seed, Mode: rapilog.ModeRapiLog, Trace: true,
		TraceCapacity: 1 << 20, Flight: flightPath != ""})
	if err != nil {
		return err
	}
	defer dep.Close()
	done := dep.S.NewEvent("done")
	var runErr error
	dep.S.Spawn(dep.Plat.Domain(), "bench", func(p *rapilog.Proc) {
		defer done.Fire()
		e, err := dep.Boot(p)
		if err != nil {
			runErr = err
			return
		}
		wl := &rapilog.Stress{}
		if runErr = wl.Load(p, e); runErr != nil {
			return
		}
		rapilog.RunClients(p, dep.Plat.Domain(), e, wl, rapilog.RunnerConfig{
			Clients: 8, Duration: 2 * time.Second, Warmup: 200 * time.Millisecond,
		})
	})
	if err := dep.S.RunUntilEvent(done); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if err := cliflags.WriteJSON(path, dep.Obs.Tracer().WriteJSON); err != nil {
		return err
	}
	if flightPath == "" {
		return nil
	}
	dep.Flight.Freeze(dep.S.Now().Duration(), "run-end")
	return cliflags.WriteJSON(flightPath, dep.Flight.Record().WriteJSON)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rapilog-bench: "+format+"\n", args...)
	os.Exit(1)
}
