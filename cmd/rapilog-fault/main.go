// Command rapilog-fault runs destructive durability campaigns: repeated
// guest crashes, plug-pulls, media-fault windows, or replication-fabric
// outages under load, each followed by recovery and a client-side
// durability audit. This is the tool behind the paper's "pull the plug N
// times, lose nothing" claim — and this reproduction's replicated
// extension of it.
//
// Usage:
//
//	rapilog-fault -mode rapilog -fault power-cut -trials 50
//	rapilog-fault -mode native-async -fault guest-crash -trials 20 -per-trial
//	rapilog-fault -mode rapilog -fault disk-error -trials 50 -err-prob 0.9
//	rapilog-fault -mode rapilog -fault disk-error -permanent -trials 5
//	rapilog-fault -mode rapilog -fault latency-storm -fault-window 500ms
//	rapilog-fault -mode rapilog-replica -fault partition -then power-cut \
//	    -break-dump -ack-policy quorum -quorum 1 -replicas 2 -trials 10
//	rapilog-fault -shards 4 -fault power-cut -trials 50
//	rapilog-fault -exp a11 -trials 5 -parallel 3 -trace-out trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/faultinject"
)

func main() {
	flags := cliflags.Register(flag.CommandLine, cliflags.Usage{
		Shards:     "independent log-domain shards on one machine (power-cut only; 0 = unsharded)",
		TraceOut:   "write the retained trial's causal trace dump (JSON) to this file",
		MetricsOut: "write the retained trial's metrics snapshot (JSON) to this file",
		FlightOut:  "arm the flight recorder and write the retained trial's frozen record (JSON) to this file",
	})
	var (
		fault     = flag.String("fault", "power-cut", "power-cut | guest-crash | disk-error | latency-storm | partition | replica-crash")
		trials    = flag.Int("trials", 20, "independent trials")
		clients   = flag.Int("clients", 4, "clients under load during injection")
		seed      = flag.Int64("seed", 42, "base deterministic seed")
		perTrial  = flag.Bool("per-trial", false, "print one line per trial")
		parallel  = flag.Int("parallel", 0, "trials run concurrently (0 = GOMAXPROCS; results identical to -parallel 1)")
		wl        = flag.String("workload", "tpcc", "tpcc | stress")
		window    = flag.Duration("fault-window", 0, "how long a media fault lasts (disk-error, latency-storm; default 300ms)")
		errProb   = flag.Float64("err-prob", 0, "per-request write-error probability inside a disk-error window (default 0.7)")
		permanent = flag.Bool("permanent", false, "disk-error grows a permanent bad-sector range instead (forces degraded pass-through)")
		// Replication faults (rapilog-replica mode).
		partWin   = flag.Duration("partition-window", 0, "how long a partition or replica-crash outage lasts (default fault-window)")
		then      = flag.String("then", "", "second fault at the outage midpoint: power-cut | guest-crash (partition, replica-crash)")
		crashReps = flag.Int("crash-replicas", 0, "standbys a replica-crash takes down (default 1)")
		breakDump = flag.Bool("break-dump", false, "grow a bad-sector range over the whole dump zone: emergency dumps fail")
		// High-availability campaigns (3-node epoch-fenced cluster).
		exp = flag.String("exp", "", "run a canned HA experiment instead of a single-rig campaign: a11 (leader-loss failover; honours -trials, -clients, -parallel, -seed, -quorum and the artifact flags)")
	)
	flag.Parse()

	rigCfg, err := flags.Config(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: %v\n", err)
		os.Exit(2)
	}
	out := &output{perTrial: *perTrial, flags: flags}
	if *exp != "" {
		if *exp != "a11" {
			fmt.Fprintf(os.Stderr, "rapilog-fault: unknown experiment %q for -exp (supported: a11)\n", *exp)
			os.Exit(2)
		}
		runFailoverExp(out, *trials, *clients, *parallel, *seed, flags.Quorum)
		out.finish()
		return
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

	if rigCfg.Mode == rapilog.ModeRapiLogReplica {
		n := flags.Replicas
		if n == 0 {
			n = 2
		}
		fmt.Printf("replication: %d standbys, ack policy %s\n", n, rigCfg.AckPolicy)
	}
	if flags.Shards > 1 {
		fmt.Printf("sharding: %d independent log domains, machine-wide plug-pull\n", flags.Shards)
	}
	sum := rapilog.RunCampaign(cfg)
	report(out, sum, sum.Artifacts, sum.Trials,
		fmt.Sprintf("%-6s %-12s %-8s %-8s %-6s %-9s %-10s %-9s %-8s",
			"trial", "seed", "acked", "lost", "torn", "degraded", "stranded", "repl_lag", "err"),
		func(i int, tr rapilog.TrialResult) string {
			return fmt.Sprintf("%-6d %-12d %-8d %-8d %-6v %-9v %-10d %-9d %-8s",
				i, tr.Seed, tr.Acked, tr.Missing, tr.Torn, tr.Degraded, tr.BufferedAfter, tr.ReplLagMax, errStr(tr.Err))
		})
	out.finish()
}

// runFailoverExp drives the A11 leader-loss campaigns: plug-pull, isolation
// and a composed coordinator-crash+plug-pull against a fresh 3-node
// epoch-fenced cluster per trial, auditing zero acked-quorum loss and zero
// split-brain. Forensic artifacts retain the first bad campaign's capture
// across all three (else the last clean one's).
func runFailoverExp(out *output, trials, clients, parallel int, seed int64, quorum int) {
	k := quorum
	if k == 0 {
		k = 1
	}
	fmt.Printf("ha: 3-node cluster, ack policy quorum(%d), %d trials per campaign\n", k, trials)
	for _, fault := range []rapilog.FailoverFault{
		rapilog.FaultLeaderPowerCut, rapilog.FaultLeaderIsolation, rapilog.FaultCoordAndLeader,
	} {
		sum := rapilog.RunFailoverCampaign(rapilog.FailoverConfig{
			Cluster: rapilog.ClusterConfig{
				Nodes: 3,
				Rig:   rapilog.Config{Seed: seed, AckPolicy: rapilog.AckQuorum(k)},
			},
			Fault:      fault,
			Trials:     trials,
			Clients:    clients,
			Parallel:   parallel,
			SessionFor: 20 * time.Second,
		})
		report(out, sum, sum.Artifacts, sum.Trials,
			fmt.Sprintf("%-6s %-12s %-8s %-6s %-10s %-12s %-12s %-8s",
				"trial", "seed", "acked", "lost", "failovers", "split-brain", "unavail", "err"),
			func(i int, tr rapilog.FailoverTrial) string {
				return fmt.Sprintf("%-6d %-12d %-8d %-6d %-10d %-12d %-12v %-8s",
					i, tr.Seed, tr.Acked, tr.Missing, tr.Failovers, tr.SplitBrain,
					tr.Unavailable.Round(time.Millisecond), errStr(tr.Err))
			})
	}
}

// output is the one path every campaign kind prints and writes through.
type output struct {
	perTrial bool
	flags    *cliflags.Deployment
	kept     faultinject.Retention // across the campaigns of one invocation
	bad      bool
}

// campaignSummary is what report needs of either campaign kind's summary.
type campaignSummary interface {
	fmt.Stringer
	Bad() bool
	FirstErr() error
}

// report prints one campaign — a row per trial when asked, then its summary
// line — and offers its retained capture to the invocation's.
func report[T any](o *output, sum campaignSummary, art *rapilog.CampaignArtifacts, trials []T, header string, row func(i int, tr T) string) {
	if o.perTrial {
		fmt.Println(header)
		for i, tr := range trials {
			fmt.Println(row(i, tr))
		}
	}
	fmt.Println(sum)
	if err := sum.FirstErr(); err != nil {
		fmt.Fprintf(os.Stderr, "rapilog-fault: first trial error: %v\n", err)
	}
	o.bad = o.bad || sum.Bad()
	o.kept.Offer(art, sum.Bad())
}

// finish writes the retained capture where the artifact flags point, and
// exits 1 if any campaign was bad.
func (o *output) finish() {
	if art := o.kept.Artifacts; art != nil {
		fmt.Printf("artifacts: trial %d (seed %d)\n", art.Trial, art.Seed)
		writeArtifact(o.flags.TraceOut, "trace", art.Trace != nil, func(w io.Writer) error { return art.Trace.WriteJSON(w) })
		writeArtifact(o.flags.MetricsOut, "metrics", art.Metrics != nil, func(w io.Writer) error { return art.Metrics.WriteJSON(w) })
		writeArtifact(o.flags.FlightOut, "flight record", art.Flight != nil, func(w io.Writer) error { return art.Flight.WriteJSON(w) })
	}
	if o.bad {
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
