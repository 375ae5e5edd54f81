// Command rapilog-trace is the forensic analyzer for RapiLog trace dumps
// and flight records (the JSON written by rapilog-sim's and rapilog-fault's
// -trace-out and -flight-out flags). It reconstructs each commit's causal
// chain — tx_begin → covering WAL force → (ship → apply → ack)×k →
// quorum_met — and reports per-stage latency percentiles, the commit
// critical path with local-force time separated from the replication
// quorum barrier, and a drop/resend/repair timeline.
//
// Usage:
//
//	rapilog-trace trace.json
//	rapilog-trace flight.json                 # auto-detected by shape
//	rapilog-trace -perfetto ui.json trace.json
//	rapilog-trace -check trace.json           # re-verify invariants; exit 1
//	rapilog-trace -buckets 40 trace.json flight.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	var (
		perfetto = flag.String("perfetto", "", "write the first input as Chrome trace-event JSON (Perfetto / chrome://tracing)")
		check    = flag.Bool("check", false, "re-verify the safety invariants offline and reject malformed traces; exit 1 on findings")
		buckets  = flag.Int("buckets", 0, "timeline resolution in slices (default 24)")
		policy   = flag.String("check-policy", "", "override the -check ack policy: local | quorum | remote-only (default: inferred from the trace)")
		quorumK  = flag.Int("check-quorum", 0, "override the -check quorum size (default: inferred)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "rapilog-trace: no input files (pass trace/flight JSON paths)")
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	for i, path := range flag.Args() {
		if i > 0 {
			fmt.Println()
		}
		if !analyzeFile(path, *perfetto, *check, *buckets, *policy, *quorumK, i == 0) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// analyzeFile loads one trace dump or flight record, prints its report, and
// returns false when -check found violations or the file is malformed.
func analyzeFile(path, perfetto string, check bool, buckets int, policy string, quorumK int, first bool) bool {
	dump, flight, err := loadInput(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-trace: %s: %v\n", path, err)
		return false
	}

	fmt.Printf("== %s ==\n", path)
	if flight != nil {
		fmt.Printf("flight record:  frozen %q at %v (%d events retained, %d truncated, %d snapshots)\n",
			flight.Reason, time.Duration(flight.AtNs).Round(time.Microsecond),
			len(flight.Events), flight.TruncatedEvents, len(flight.Snapshots))
		if mr := flight.Monitor; mr != nil {
			fmt.Printf("monitor:        %d events checked, %d acked txs, %d violations\n",
				mr.EventsSeen, mr.TxAcked, mr.Total)
			printViolations(mr)
		}
	}

	a, err := rapilog.AnalyzeTrace(dump, buckets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-trace: %s: malformed trace: %v\n", path, err)
		return false
	}
	fmt.Printf("trace:          %d events emitted, %d dropped by the ring\n", a.Events, a.Dropped)
	if len(a.Labels) > 0 {
		names := make([]string, 0, len(a.Labels))
		for n := range a.Labels {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("endpoints:      %v\n", names)
	}
	fmt.Printf("causal chains:  %d/%d acked commits complete (%.1f%%)",
		a.Chains.Complete, a.Chains.Commits, 100*a.Chains.Ratio())
	if a.QuorumK > 0 {
		fmt.Printf(", quorum k=%d", a.QuorumK)
	}
	fmt.Println()
	if len(a.Chains.Incomplete) > 0 {
		reasons := make([]string, 0, len(a.Chains.Incomplete))
		for r := range a.Chains.Incomplete {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Printf("                incomplete: %s ×%d\n", r, a.Chains.Incomplete[r])
		}
	}

	fmt.Printf("\nstage latencies:\n%s\n", a.StageTable())
	if a.Critical.Commits > 0 {
		fmt.Printf("commit critical path (%d commits):\n%s\n", a.Critical.Commits, a.CriticalTable())
	}
	if tl := a.TimelineTable(); tl.Rows() > 0 {
		fmt.Printf("replication / fault timeline:\n%s\n", tl)
	}

	ok := true
	if check {
		ok = runCheck(dump, a, policy, quorumK)
	}
	if perfetto != "" && first {
		if err := cliflags.WriteJSON(perfetto, a.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "rapilog-trace: writing %v\n", err)
			return false
		}
		fmt.Printf("wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", perfetto)
	}
	return ok
}

// loadInput parses path as either a trace dump or a flight record,
// distinguished by shape: a flight record carries "reason"/"final", a trace
// dump carries "emitted". Flight records are reshaped into a TraceDump so
// one analyzer serves both.
func loadInput(path string) (rapilog.TraceDump, *rapilog.FlightRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return rapilog.TraceDump{}, nil, err
	}
	defer f.Close()
	var probe struct {
		Reason  *string `json:"reason"`
		Emitted *int    `json:"emitted"`
	}
	dec := json.NewDecoder(f)
	if err := dec.Decode(&probe); err != nil {
		return rapilog.TraceDump{}, nil, fmt.Errorf("not valid JSON: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return rapilog.TraceDump{}, nil, err
	}
	switch {
	case probe.Reason != nil:
		rec, err := rapilog.ReadFlightRecord(f)
		if err != nil {
			return rapilog.TraceDump{}, nil, err
		}
		d := rapilog.TraceDump{
			Emitted: len(rec.Events) + rec.TruncatedEvents,
			Dropped: rec.TruncatedEvents,
			Labels:  rec.Labels,
			Events:  rec.Events,
		}
		return d, rec, nil
	case probe.Emitted != nil:
		d, err := rapilog.ReadTraceDump(f)
		return d, nil, err
	default:
		return rapilog.TraceDump{}, nil, fmt.Errorf("neither a trace dump (no \"emitted\") nor a flight record (no \"reason\")")
	}
}

// boundUnchecked qualifies every -check verdict: a dump does not carry the
// exposure bound its machine was built with, so the monitor runs with Bound 0
// and "exposure ≤ bound" is the one invariant it cannot re-verify offline.
const boundUnchecked = "exposure bound not in the dump: not checked"

// runCheck re-verifies the trace offline: events must decode, time must not
// run backwards, and the invariant monitor must find nothing.
func runCheck(dump rapilog.TraceDump, a *rapilog.TraceAnalysis, policy string, quorumK int) bool {
	events, err := dump.DecodedEvents()
	if err != nil {
		fmt.Printf("check:          FAIL — malformed trace: %v\n", err)
		return false
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			fmt.Printf("check:          FAIL — malformed trace: event %d at %v precedes event %d at %v\n",
				i, events[i].At, i-1, events[i-1].At)
			return false
		}
	}
	cfg := rapilog.MonitorConfig{}
	switch policy {
	case "":
		if a.QuorumK > 0 {
			cfg.Policy, cfg.QuorumK = rapilog.PolicyQuorum, a.QuorumK
		}
	case "local":
		cfg.Policy = rapilog.PolicyLocal
	case "quorum", "remote-only", "remote":
		cfg.Policy = rapilog.PolicyQuorum
	default:
		fmt.Fprintf(os.Stderr, "rapilog-trace: unknown -check-policy %q\n", policy)
		return false
	}
	if quorumK > 0 {
		cfg.QuorumK = quorumK
	}
	if cfg.Policy != rapilog.PolicyLocal && cfg.QuorumK == 0 {
		cfg.QuorumK = 1
	}
	rep := rapilog.RunMonitor(events, cfg)
	if rep.Total == 0 {
		fmt.Printf("check:          ok — %d events, %d acked txs, 0 violations (%s)\n",
			rep.EventsSeen, rep.TxAcked, boundUnchecked)
		return true
	}
	fmt.Printf("check:          FAIL — %d invariant violations (%s)\n", rep.Total, boundUnchecked)
	printViolations(&rep)
	return false
}

func printViolations(rep *rapilog.MonitorReport) {
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("                %s ×%d\n", k, rep.ByKind[k])
	}
	for _, v := range rep.Samples {
		fmt.Printf("                at %v: [%s] %s\n",
			time.Duration(v.AtNs).Round(time.Microsecond), v.Invariant, v.Detail)
	}
}
