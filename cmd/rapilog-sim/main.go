// Command rapilog-sim runs one deployment scenario and prints a full run
// report: throughput, latency percentiles, engine counters, RapiLog buffer
// statistics, and device activity. It is the tool for exploring a single
// configuration in detail.
//
// Usage:
//
//	rapilog-sim -mode rapilog -engine pg -disk hdd -clients 8 -duration 10s
//	rapilog-sim -mode native-sync -workload tpcb -commit-trace
//	rapilog-sim -commit-trace -trace-out trace.json -metrics-out metrics.json
//	rapilog-sim -ack-policy quorum -quorum 1 -replicas 2
//	rapilog-sim -shards 4 -workload tpcb -clients 4
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
		Shards:     "independent log-domain shards on one machine (0 = unsharded; -clients is per shard)",
		TraceOut:   "write the commit-lifecycle trace as JSON to this file (implies -commit-trace)",
		MetricsOut: "write a metrics-registry snapshot as JSON to this file",
		FlightOut:  "arm the flight recorder and write its record as JSON to this file (frozen at run end if nothing froze it first)",
	})
	var (
		diskKind = flag.String("disk", "hdd", "hdd | ssd | mem")
		psu      = flag.String("psu", "measured", "atx-spec | typical | measured")
		wl       = flag.String("workload", "tpcc", "tpcc | tpcb | stress")
		clients  = flag.Int("clients", 8, "closed-loop client count")
		duration = flag.Duration("duration", 10*time.Second, "measured virtual time")
		warmup   = flag.Duration("warmup", time.Second, "virtual warmup excluded from stats")
		seed     = flag.Int64("seed", 1, "deterministic seed")

		commitTrace = flag.Bool("commit-trace", false, "record commit-lifecycle trace events")
		traceCap    = flag.Int("trace-cap", 0, "trace ring capacity (default 65536)")
	)
	flag.Parse()

	if err := checkMeasurement(*clients, *duration, *warmup); err != nil {
		fatalf("%v", err)
	}
	cfg, err := flags.Config(*seed)
	if err != nil {
		fatalf("%v", err)
	}
	switch *psu {
	case "atx-spec":
		cfg.PSU = rapilog.PSUATXSpec
	case "typical":
		cfg.PSU = rapilog.PSUTypical
	case "measured":
		cfg.PSU = rapilog.PSUMeasured
	default:
		fatalf("unknown psu %q", *psu)
	}
	cfg.Disk = rapilog.DiskKind(*diskKind)
	cfg.Trace = cfg.Trace || *commitTrace
	cfg.TraceCapacity = *traceCap
	dep, err := rapilog.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer dep.Close()

	// Run splits the workload across the log domains: a fleet hash-partitions
	// one data set that grows with the shard count (weak scaling: per-shard
	// provisioning is constant).
	n := len(dep.Domains)
	var w rapilog.Workload
	switch *wl {
	case "tpcc":
		w = &rapilog.TPCC{Warehouses: 4 * n, Districts: 10, Customers: 30, Items: 400}
	case "tpcb":
		w = &rapilog.TPCB{Branches: 2 * n, Tellers: 10, Accounts: 1000}
	case "stress":
		w = &rapilog.Stress{}
	default:
		fatalf("unknown workload %q", *wl)
	}
	res, err := dep.Run(w, rapilog.RunnerConfig{Clients: *clients, Duration: *duration, Warmup: *warmup})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("configuration:  mode=%s engine=%s disk=%s psu=%s clients=%d",
		flags.Mode, flags.Engine, *diskKind, *psu, *clients)
	if n > 1 {
		fmt.Printf("/shard shards=%d", n)
	}
	fmt.Printf("\nmeasured:       %v (after %v warmup)\n", res.Total.Duration, *warmup)
	fmt.Printf("throughput:     %.0f tps (%d committed, %d aborted)\n", res.Total.TPS(), res.Total.Committed, res.Total.Aborted)
	fmt.Printf("txn latency:    p50=%v p95=%v p99=%v max=%v\n",
		res.Total.TxnLatency.Quantile(0.50).Round(time.Microsecond),
		res.Total.TxnLatency.Quantile(0.95).Round(time.Microsecond),
		res.Total.TxnLatency.Quantile(0.99).Round(time.Microsecond),
		res.Total.TxnLatency.Max().Round(time.Microsecond))
	for i, d := range dep.Domains {
		if n > 1 {
			fmt.Printf("shard %-2d        %.0f tps (%d committed)\n", i, res.Domains[i].TPS(), res.Domains[i].Committed)
		}
		reportDomain(d, res.Engines[i], cfg.AckPolicy)
	}
	reg := dep.Obs.Registry()
	if n > 1 {
		ack := dep.RollupHistogram("engine.commit.ack_latency")
		fmt.Printf("rollup:         %d commits, %d rapilog writes, commit ack p50=%v p99=%v\n",
			dep.RollupCounter("engine.commits"),
			dep.RollupCounter("rapilog.writes"),
			ack.Quantile(0.50).Round(time.Microsecond),
			ack.Quantile(0.99).Round(time.Microsecond))
	}

	if cfg.Trace {
		tr := dep.Obs.Tracer()
		fmt.Printf("\ncommit trace:   %d events (%d dropped by the ring)\n", tr.Emitted(), tr.Dropped())
		fmt.Printf("\nstage latencies:\n%s\n", reg.Snapshot().LatencyTable())
		if dep.Logger != nil {
			rep, err := dep.AuditExposure()
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("durability:     %s\n", rep.Verdict())
			if rep.AckToDurable.Count() > 0 {
				fmt.Printf("ack→durable:    p50=%v p99=%v max=%v\n",
					rep.AckToDurable.Quantile(0.50).Round(time.Microsecond),
					rep.AckToDurable.Quantile(0.99).Round(time.Microsecond),
					rep.AckToDurable.Max().Round(time.Microsecond))
			}
		}
	}
	if dep.Monitor != nil {
		rep := dep.Monitor.Report()
		fmt.Printf("monitor:        %d events checked, %d acked txs, %d violations\n",
			rep.EventsSeen, rep.TxAcked, rep.Total)
		for _, v := range rep.Samples {
			fmt.Printf("                %s at %v: %s\n", v.Invariant, v.At(), v.Detail)
		}
	}
	writeFileJSON(flags.TraceOut, func(w io.Writer) error { return dep.Obs.Tracer().Dump().WriteJSON(w) })
	writeFileJSON(flags.MetricsOut, reg.Snapshot().WriteJSON)
	if dep.Flight != nil {
		dep.Flight.Freeze(dep.S.Now().Duration(), "run-end")
		writeFileJSON(flags.FlightOut, dep.Flight.Record().WriteJSON)
	}
}

// checkMeasurement rejects a run that would measure nothing — nobody
// committing, or no interval to commit in — and still print a report: "0 tps"
// with exit status 0 reads as a result.
func checkMeasurement(clients int, duration, warmup time.Duration) error {
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d: a run needs at least one client", clients)
	case duration <= 0:
		return fmt.Errorf("-duration %v: the measured interval must be positive", duration)
	case warmup < 0:
		return fmt.Errorf("-warmup %v: the warmup cannot be negative", warmup)
	}
	return nil
}

// reportDomain prints one log domain's engine, WAL, RapiLog, disk and
// replication counters.
func reportDomain(d *rapilog.LogDomain, eng *rapilog.Engine, policy rapilog.AckPolicy) {
	st := eng.Stats()
	fmt.Printf("commit latency: p50=%v p99=%v\n",
		st.CommitLatency.Quantile(0.50).Round(time.Microsecond),
		st.CommitLatency.Quantile(0.99).Round(time.Microsecond))
	fmt.Printf("engine:         %d commits, %d aborts, %d checkpoints\n",
		st.Commits.Value(), st.Aborts.Value(), st.Checkpoints.Value())
	ws := eng.Log().Stats()
	fmt.Printf("wal:            %d appends, %d physical forces, %d piggybacked, %d blocks written\n",
		ws.Appends.Value(), ws.Forces.Value(), ws.ForceWaits.Value(), ws.BlocksWritten.Value())
	if d.Logger != nil {
		rs := d.Logger.RapiStats()
		fmt.Printf("rapilog:        %d writes (%d absorbed), %d throttled,\n",
			rs.Writes.Value(), rs.Absorbed.Value(), rs.Throttled.Value())
		fmt.Printf("                buffer bound %d KiB, peak occupancy %d KiB, ack p99 %v\n",
			d.Logger.MaxBuffer()/1024, rs.Occupancy.Peak()/1024,
			rs.AckLatency.Quantile(0.99).Round(time.Microsecond))
	}
	ds := d.Disk.Stats()
	fmt.Printf("disk:           %d reads, %d writes, write p99 %v\n",
		ds.Reads.Value(), ds.Writes.Value(),
		ds.WriteLatency.Quantile(0.99).Round(time.Microsecond))
	if d.Shipper != nil {
		reg := d.Obs.Registry()
		lost := ""
		if n := reg.Counter("repl.evictions").Value(); n > 0 {
			lost = fmt.Sprintf(", %d standbys lost", n)
		}
		fmt.Printf("replication:    policy=%s, %d standbys, %d records shipped (%d KiB), %d resends, lag peak %d%s\n",
			policy, len(d.Standbys), reg.Counter("repl.shipped").Value(),
			reg.Counter("repl.shipped_bytes").Value()/1024,
			reg.Counter("repl.resends").Value(), reg.Gauge("repl.lag").Peak(), lost)
		for _, pr := range d.Shipper.Progress() {
			lat := reg.Histogram("repl." + pr.Name + ".ack_latency")
			fmt.Printf("                %s: acked %d/%d, ack latency p50=%v p99=%v\n",
				pr.Name, pr.Acked, d.Shipper.LastSeq(),
				lat.Quantile(0.50).Round(time.Microsecond),
				lat.Quantile(0.99).Round(time.Microsecond))
		}
	}
}

// writeFileJSON streams one JSON document into path (none when path is
// empty).
func writeFileJSON(path string, write func(w io.Writer) error) {
	if err := cliflags.WriteJSON(path, write); err != nil {
		fatalf("writing %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rapilog-sim: "+format+"\n", args...)
	os.Exit(1)
}
