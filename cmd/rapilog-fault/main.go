// Command rapilog-fault runs destructive durability campaigns: repeated
// guest crashes, plug-pulls, media-fault windows, replication-fabric outages
// or leader losses under load, each followed by recovery and a client-side
// durability audit. This is the tool behind the paper's "pull the plug N
// times, lose nothing" claim — and this reproduction's replicated and
// highly-available extensions of it.
//
// Usage:
//
//	rapilog-fault -mode rapilog -fault power-cut -trials 50
//	rapilog-fault -mode native-async -fault guest-crash -trials 20 -per-trial
//	rapilog-fault -mode rapilog -fault disk-error -trials 50 -err-prob 0.9
//	rapilog-fault -mode rapilog -fault disk-error -permanent -trials 5
//	rapilog-fault -mode rapilog -fault latency-storm -fault-window 500ms
//	rapilog-fault -fault partition -then power-cut -break-dump \
//	    -ack-policy quorum -quorum 1 -trials 10
//	rapilog-fault -shards 4 -fault power-cut -trials 50
//	rapilog-fault -fault leader-isolation -trials 5 -parallel 3 -trace-out trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	flags := cliflags.Register(flag.CommandLine, cliflags.Usage{
		Shards:     "independent log-domain shards on one machine (power-cut only; 0 = unsharded)",
		TraceOut:   "write the retained trial's causal trace dump (JSON) to this file",
		MetricsOut: "write the retained trial's metrics snapshot (JSON) to this file",
		FlightOut:  "arm the flight recorder and write the retained trial's frozen record (JSON) to this file",
	})
	var (
		fault = flag.String("fault", "power-cut", "power-cut | guest-crash | disk-error | latency-storm | partition | replica-crash |"+
			" leader-power-cut | leader-isolation | coordinator+leader (a leader fault runs on an epoch-fenced cluster of -replicas + 1 nodes, default 3)")
		trials    = flag.Int("trials", 20, "independent trials")
		clients   = flag.Int("clients", 4, "clients under load during injection")
		seed      = flag.Int64("seed", 42, "base deterministic seed")
		perTrial  = flag.Bool("per-trial", false, "print one line per trial")
		parallel  = flag.Int("parallel", 0, "trials run concurrently (0 = GOMAXPROCS; results identical to -parallel 1)")
		wl        = flag.String("workload", "tpcc", "tpcc | stress (a leader fault always runs stress: 1000-byte inserts, or 120-byte with -workload stress)")
		window    = flag.Duration("fault-window", 0, "how long a media fault lasts (disk-error, latency-storm; default 300ms)")
		errProb   = flag.Float64("err-prob", 0, "per-request write-error probability inside a disk-error window (default 0.7)")
		permanent = flag.Bool("permanent", false, "disk-error grows a permanent bad-sector range instead (forces degraded pass-through)")
		// Replication faults (a machine with standbys).
		partWin   = flag.Duration("partition-window", 0, "how long a partition or replica-crash outage lasts (default fault-window)")
		then      = flag.String("then", "", "second fault at the outage midpoint: power-cut | guest-crash (partition, replica-crash)")
		crashReps = flag.Int("crash-replicas", 0, "standbys a replica-crash takes down (default 1)")
		breakDump = flag.Bool("break-dump", false, "grow a bad-sector range over the whole dump zone: emergency dumps fail")
	)
	flag.Parse()

	rigCfg, err := flags.Config(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: %v\n", err)
		os.Exit(2)
	}
	// The retained trial's metrics snapshot is captured with its trace.
	rigCfg.Trace = rigCfg.Trace || flags.MetricsOut != ""
	cfg := rapilog.CampaignConfig{
		Rig:             rigCfg,
		Fault:           rapilog.Fault(*fault),
		Compose:         rapilog.Fault(*then),
		Trials:          *trials,
		Clients:         *clients,
		Parallel:        *parallel,
		FaultWindow:     *window,
		MediaErrProb:    *errProb,
		PermanentFault:  *permanent,
		PartitionWindow: *partWin,
		CrashReplicas:   *crashReps,
		BreakDump:       *breakDump,
	}
	if *wl == "stress" {
		cfg.NewWorkload = func() rapilog.Workload { return &rapilog.Stress{} }
	}

	// The campaign resolves its Rig the way its trials build it (for a leader
	// fault, a cluster's node template), so the header reports what ran.
	sum, err := rapilog.RunCampaign(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: %v\n", err)
		os.Exit(2)
	}
	if rc := sum.Config.Rig; rc.Replicas > 0 {
		fmt.Printf("replication: %d standbys, ack policy %s\n", rc.Replicas, rc.AckPolicy)
	}
	if flags.Shards > 1 {
		fmt.Printf("sharding: %d independent log domains, machine-wide plug-pull\n", flags.Shards)
	}
	if *perTrial {
		const row = "%-6v %-12v %-8v %-11v %-6v %-6v %-9v %-9v %-9v %-10v %-12v %-9v %s\n"
		fmt.Printf(row, "trial", "seed", "acked", "after_fault", "lost", "torn", "degraded", "stranded", "repl_lag", "failovers", "split-brain", "unavail", "err")
		for i, tr := range sum.Trials {
			fmt.Printf(row, i, tr.Seed, tr.Acked, tr.AckedAfterFault, tr.Missing, tr.Torn, tr.Degraded, tr.BufferedAfter, tr.ReplLagMax,
				tr.Failovers, tr.SplitBrain, tr.Unavailable.Round(time.Millisecond), errStr(tr.Err))
		}
	}
	fmt.Println(sum)
	if err := sum.FirstErr(); err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: first trial error: %v\n", err)
	}
	if art := sum.Artifacts; art != nil {
		fmt.Printf("artifacts: trial %d (seed %d)\n", art.Trial, art.Seed)
		writeArtifact(flags.TraceOut, "trace", art.Trace != nil, func(w io.Writer) error { return art.Trace.WriteJSON(w) })
		writeArtifact(flags.MetricsOut, "metrics", art.Metrics != nil, func(w io.Writer) error { return art.Metrics.WriteJSON(w) })
		writeArtifact(flags.FlightOut, "flight record", art.Flight != nil, func(w io.Writer) error { return art.Flight.WriteJSON(w) })
	}
	if sum.Bad() {
		os.Exit(1)
	}
}

// writeArtifact writes one captured JSON artifact to path (no-op when the
// flag is unset or the trial captured none).
func writeArtifact(path, what string, captured bool, write func(io.Writer) error) {
	if path == "" || !captured {
		return
	}
	if err := cliflags.WriteJSON(path, write); err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: writing %s: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
}

func errStr(err error) string {
	if err == nil {
		return "-"
	}
	return err.Error()
}
