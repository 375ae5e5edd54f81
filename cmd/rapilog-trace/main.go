// Command rapilog-trace is the forensic analyzer for RapiLog trace dumps
// and flight records (the JSON written by rapilog-sim's and rapilog-fault's
// -trace-out and -flight-out flags; a flight record is a trace dump plus the
// freeze, so one reader serves both). It reconstructs each commit's causal
// chain — tx_begin → covering WAL force → (ship → apply → ack)×k →
// quorum_met — and reports per-stage latency percentiles, the commit
// critical path with local-force time separated from the replication
// quorum barrier, and a drop/resend/repair timeline.
//
// An artifact carries its contract: the exposure bound, the quorum an ack
// needed (0 = local acks) and the retention limit its run was checked
// against online, by every log domain of the machine. -check re-verifies the
// events against that contract, each domain on its own events (a sharded
// machine's events name their shard): all five invariants — exposure bound,
// ack evidence, retention bound, ack monotonicity and single writer per
// epoch — are functions of the events, so a replay of the run reaches the
// live verdict. It exits 1 on any violation, on a flight record frozen for
// one or whose live monitor found one, on a malformed trace, on an artifact
// with no contract, or on one whose window holds no acked transaction.
//
// Usage:
//
//	rapilog-trace trace.json
//	rapilog-trace -perfetto ui.json trace.json
//	rapilog-trace -check trace.json flight.json   # exit 1 on findings
//	rapilog-trace -buckets 40 trace.json flight.json
//	rapilog-trace -layers cpu.txt alloc.txt       # go tool pprof -traces outputs
//
// -layers is the host-clock layer table instead: it folds `go tool pprof
// -traces` outputs of CPU and alloc_space profiles (.github/layers.sh makes
// them) into each layer's share of CPU time and of allocated bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	var (
		perfetto = flag.String("perfetto", "", "write the first input as Chrome trace-event JSON (Perfetto / chrome://tracing)")
		check    = flag.Bool("check", false, "re-verify the artifact against the contract it carries and reject malformed traces; exit 1 on findings")
		buckets  = flag.Int("buckets", 0, "timeline resolution in slices (default 24)")
		layers   = flag.Bool("layers", false, "fold go tool pprof -traces outputs (cpu, alloc_space) into a per-layer table of CPU and allocated-bytes shares")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "rapilog-trace: no input files (pass trace/flight JSON paths, or pprof -traces outputs with -layers)")
		flag.Usage()
		os.Exit(2)
	}
	if *layers {
		fold := newLayerFold()
		for _, path := range flag.Args() {
			if err := fold.addFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "rapilog-trace: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("%s\ntotal: %.2f s CPU, %.1f MiB allocated\n", fold.table(), fold.cpuTotal, fold.bytesTotal/(1<<20))
		return
	}

	failed := false
	for i, path := range flag.Args() {
		if i > 0 {
			fmt.Println()
		}
		if !analyzeFile(os.Stdout, path, *perfetto, *check, *buckets, i == 0) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// analyzeFile loads one trace dump or flight record, prints its report to w,
// and returns false when -check found violations or the file is malformed.
func analyzeFile(w io.Writer, path, perfetto string, check bool, buckets int, first bool) bool {
	f, err := os.Open(path)
	var rec *rapilog.FlightRecord
	if err == nil {
		rec, err = rapilog.ReadFlightRecord(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-trace: %s: %v\n", path, err)
		return false
	}

	fmt.Fprintf(w, "== %s ==\n", path)
	if c := rec.Contract; c != nil {
		fmt.Fprintf(w, "contract:       %s\n", describe(c))
	}
	if rec.Reason != "" {
		fmt.Fprintf(w, "flight record:  frozen %q at %v (%d events retained, %d snapshots)\n",
			rec.Reason, time.Duration(rec.AtNs).Round(time.Microsecond), len(rec.Events), len(rec.Snapshots))
		if mr := rec.Monitor; mr != nil {
			fmt.Fprintf(w, "monitor:        %d events checked, %d acked txs, %d violations\n",
				mr.EventsSeen, mr.TxAcked, mr.Total)
			printViolations(w, mr)
		}
	}

	a, err := rapilog.AnalyzeTrace(rec.TraceDump, buckets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-trace: %s: malformed trace: %v\n", path, err)
		return false
	}
	fmt.Fprintf(w, "trace:          %d events emitted, %d dropped before the retained window\n", a.Events, a.Dropped)
	if len(a.Labels) > 0 {
		names := make([]string, 0, len(a.Labels))
		for n := range a.Labels {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "endpoints:      %v\n", names)
	}
	fmt.Fprintf(w, "causal chains:  %d/%d acked commits complete (%.1f%%)",
		a.Chains.Complete, a.Chains.Commits, 100*a.Chains.Ratio())
	if a.QuorumK > 0 {
		fmt.Fprintf(w, ", quorum k=%d", a.QuorumK)
	}
	fmt.Fprintln(w)
	if len(a.Chains.Incomplete) > 0 {
		reasons := make([]string, 0, len(a.Chains.Incomplete))
		for r := range a.Chains.Incomplete {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "                incomplete: %s ×%d\n", r, a.Chains.Incomplete[r])
		}
	}

	fmt.Fprintf(w, "\nstage latencies:\n%s\n", a.StageTable())
	if a.Critical.Commits > 0 {
		fmt.Fprintf(w, "commit critical path (%d commits):\n%s\n", a.Critical.Commits, a.CriticalTable())
	}
	if tl := a.TimelineTable(); tl.Rows() > 0 {
		fmt.Fprintf(w, "replication / fault timeline:\n%s\n", tl)
	}

	ok := true
	if check {
		ok = runCheck(w, rec)
	}
	if perfetto != "" && first {
		if err := cliflags.WriteJSON(perfetto, a.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "rapilog-trace: writing %v\n", err)
			return false
		}
		fmt.Fprintf(w, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", perfetto)
	}
	return ok
}

// describe renders a contract for the report and the -check verdict.
func describe(c *rapilog.MonitorConfig) string {
	acks := "local acks"
	if c.QuorumK > 0 {
		acks = fmt.Sprintf("quorum k=%d", c.QuorumK)
	}
	return fmt.Sprintf("exposure bound %d B, %s, retention limit %d B", c.Bound, acks, c.RetainLimit)
}

// runCheck re-verifies the trace offline against the contract it carries:
// events must decode, time must not run backwards, a flight record must not
// have been frozen for a violation, the invariant monitor must find nothing,
// and the window must hold at least one acked transaction — an artifact that
// saw none proves nothing.
func runCheck(w io.Writer, rec *rapilog.FlightRecord) bool {
	dump := rec.TraceDump
	if dump.Contract == nil {
		fmt.Fprintln(w, "check:          FAIL — the artifact carries no contract (no monitor was armed on its run), so there is nothing to check it against")
		return false
	}
	events, err := dump.DecodedEvents()
	if err != nil {
		fmt.Fprintf(w, "check:          FAIL — malformed trace: %v\n", err)
		return false
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			fmt.Fprintf(w, "check:          FAIL — malformed trace: event %d at %v precedes event %d at %v\n",
				i, events[i].At, i-1, events[i-1].At)
			return false
		}
	}
	// A record carries the verdict of a monitor that saw the whole run; the
	// record's own window (4 096 events) need not reach back to where a
	// violation began — a retention episode starts a grace before it is
	// flagged.
	if mr := rec.Monitor; mr != nil && mr.Total > 0 {
		fmt.Fprintf(w, "check:          FAIL — the record's live monitor found %d invariant violations (%s)\n", mr.Total, describe(dump.Contract))
		printViolations(w, mr)
		return false
	}
	if inv, ok := strings.CutPrefix(rec.Reason, "invariant:"); ok {
		fmt.Fprintf(w, "check:          FAIL — the record was frozen for a %s violation (%s)\n", inv, describe(dump.Contract))
		return false
	}
	rep := rapilog.RunMonitor(events, *dump.Contract)
	switch {
	case rep.Total > 0:
		fmt.Fprintf(w, "check:          FAIL — %d invariant violations (%s)\n", rep.Total, describe(dump.Contract))
		printViolations(w, &rep)
		return false
	case rep.TxAcked == 0:
		fmt.Fprintf(w, "check:          FAIL — %d events but no acked transaction: the window saw nothing the invariants promise about\n",
			rep.EventsSeen)
		return false
	}
	fmt.Fprintf(w, "check:          ok — %d events, %d acked txs, 0 violations (%s)\n",
		rep.EventsSeen, rep.TxAcked, describe(dump.Contract))
	return true
}

func printViolations(w io.Writer, rep *rapilog.MonitorReport) {
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "                %s ×%d\n", k, rep.ByKind[k])
	}
	for _, v := range rep.Samples {
		fmt.Fprintf(w, "                at %v: [%s] %s\n",
			time.Duration(v.AtNs).Round(time.Microsecond), v.Invariant, v.Detail)
	}
}
