// Command rapilog-bench regenerates the evaluation on the virtual clock:
// the paper's tables and figures (experiments e1–e10) plus this
// reproduction's ablations and extensions (a1–a11: group commit, SSD,
// sizing-rule violation, dedicated spindle, TPC-B, NVRAM, recovery time,
// media faults, replication, sharding, failover). Each experiment prints an
// aligned table and notes describing the expected shape. What the simulator
// itself costs on the host clock is benchmark/run.sh's job, not this one's.
//
// Usage:
//
//	rapilog-bench                 # run everything, full size
//	rapilog-bench -exp e1,a10     # selected experiments
//	rapilog-bench -quick          # small sweeps (seconds, not minutes)
//	rapilog-bench -list           # list experiment ids and titles
//	rapilog-bench -metrics-out values.json
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
		expList    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick      = flag.Bool("quick", false, "shrink sweeps and durations")
		seed       = flag.Int64("seed", 1, "base deterministic seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		verbose    = flag.Bool("v", true, "print per-data-point progress")
		metricsOut = flag.String("metrics-out", "", "write every experiment's named values as JSON to this file")
	)
	flag.Parse()

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
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rapilog-bench: "+format+"\n", args...)
	os.Exit(1)
}
