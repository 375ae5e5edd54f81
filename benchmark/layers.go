package main

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// layerCounts is what the benchmark reads from a deployment's instruments,
// folded over every repetition, trial or cluster node that contributed:
// counters add, gauge peaks keep their maximum, histograms merge.
type layerCounts struct {
	counters map[string]int64
	peaks    map[string]int64
	hists    map[string]*metrics.Histogram
	sums     map[string]int64 // histogram sums (ns) over the counted interval

	// From outside the registry.
	commits   int64         // client transactions committed in the counted interval
	virt      time.Duration // virtual length of the counted interval
	events    uint64        // sim events dispatched in it
	hostNs    int64         // host time it took
	pageHits  int64
	pageMiss  int64
	pageEvict int64
	pageWrite int64
}

func newLayerCounts() *layerCounts {
	return &layerCounts{
		counters: make(map[string]int64),
		peaks:    make(map[string]int64),
		hists:    make(map[string]*metrics.Histogram),
		sums:     make(map[string]int64),
	}
}

// A cluster registers each node's instruments under "node<i>."; the
// benchmark wants the layer's total whichever node did the work.
var nodePrefix = regexp.MustCompile(`^node\d+\.`)

// A deployment's disks are "disk0" (and "disk1-log" when the log has its
// own spindle); their instruments fold into "disk.*".
var diskPrefix = regexp.MustCompile(`^disk\d+(-log)?\.`)

// Standby instruments carry the standby's name: "repl.standby0.ack_latency".
var standbyInfix = regexp.MustCompile(`^repl\.(standby\d+|node\d+\.log)\.`)

func foldName(name string) string {
	name = nodePrefix.ReplaceAllString(name, "")
	name = diskPrefix.ReplaceAllString(name, "disk.")
	return standbyInfix.ReplaceAllString(name, "repl.standby.")
}

// addRegistry folds reg's instruments in. base, when non-nil, is a snapshot
// taken at the start of the counted interval: counters then contribute
// their growth since base, and so do histogram sums. Histogram quantiles
// have no subtractive form: the distributions are merged whole (load and
// warm-up commits included; see the README).
func (lc *layerCounts) addRegistry(reg *obs.Registry, base *obs.Snapshot) {
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if base != nil {
			v -= base.Counters[name]
		}
		lc.counters[foldName(name)] += v
	}
	for name, g := range snap.Gauges {
		if k := foldName(name); g.Peak > lc.peaks[k] {
			lc.peaks[k] = g.Peak
		}
	}
	for name, hs := range snap.Histograms {
		k := foldName(name)
		if base != nil {
			hs.SumNs -= base.Histograms[name].SumNs
		}
		lc.sums[k] += hs.SumNs
		h := lc.hists[k]
		if h == nil {
			h = metrics.NewHistogram(k)
			lc.hists[k] = h
		}
		// snap.Histograms holds registry-qualified names; the view's own
		// prefix is empty for every registry the benchmark reads.
		h.Merge(reg.Histogram(name))
	}
}

// addStore folds one engine's page-store counters in (they live outside the
// registry). base values, taken at the start of the interval, subtract.
func (lc *layerCounts) addStore(e *engine.Engine, base storeCounts) {
	now := readStore(e)
	lc.pageHits += now.hits - base.hits
	lc.pageMiss += now.misses - base.misses
	lc.pageEvict += now.evictions - base.evictions
	lc.pageWrite += now.writes - base.writes
}

type storeCounts struct{ hits, misses, evictions, writes int64 }

func readStore(e *engine.Engine) storeCounts {
	st := e.Store().Stats()
	return storeCounts{st.Hits.Value(), st.Misses.Value(), st.Evictions.Value(), st.Writes.Value()}
}

func (lc *layerCounts) hist(name string) *metrics.Histogram {
	if h := lc.hists[name]; h != nil {
		return h
	}
	return metrics.NewHistogram(name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// registryMetrics fills in every per-layer metric that comes from counters,
// gauges and histograms. Metrics whose layer the workload does not touch
// come out as 0, which is the "should not move" prediction made visible.
func (lc *layerCounts) registryMetrics(m results) {
	c := func(name string) float64 { return float64(lc.counters[name]) }
	n := float64(lc.commits)
	perCommit := func(name string) float64 { return ratio(c(name), n) }
	perK := func(name string) float64 { return ratio(1000*c(name), n) }
	p := func(hist string, q float64) float64 { return us(histQuantile(lc.hist(hist), q)) }

	m["sim.events_per_commit"] = ratio(float64(lc.events), n)
	m["sim.host_ns_per_event"] = ratio(float64(lc.hostNs), float64(lc.events))

	m["engine.reads_per_commit"] = perCommit("engine.reads")
	m["engine.writes_per_commit"] = perCommit("engine.writes")
	m["engine.abort_share"] = ratio(c("engine.aborts"), c("engine.aborts")+c("engine.commits"))
	m["engine.checkpoints"] = c("engine.checkpoints")
	m["engine.redone_txns"] = c("engine.redone_txns")

	m["pagestore.hit_share"] = ratio(float64(lc.pageHits), float64(lc.pageHits+lc.pageMiss))
	m["pagestore.evictions"] = float64(lc.pageEvict)
	m["pagestore.writes_per_commit"] = ratio(float64(lc.pageWrite), n)

	m["wal.forces_per_commit"] = perCommit("wal.forces")
	m["wal.force_waits_per_commit"] = perCommit("wal.force_waits")
	m["wal.blocks_per_commit"] = perCommit("wal.blocks_written")
	m["wal.force_p50_us"] = p("wal.force_latency", 0.50)
	m["wal.force_p99_us"] = p("wal.force_latency", 0.99)

	m["hv.exits_per_commit"] = perCommit("hv.exits")

	m["core.ack_p50_us"] = p("rapilog.ack_latency", 0.50)
	m["core.ack_p99_us"] = p("rapilog.ack_latency", 0.99)
	m["core.absorb_share"] = ratio(c("rapilog.absorbed"), c("rapilog.writes"))
	m["core.throttled_per_kcommit"] = perK("rapilog.throttled")
	m["core.drained_bytes_per_commit"] = perCommit("rapilog.drained_bytes")
	m["core.drain_rounds_per_kcommit"] = perK("rapilog.drain_rounds")
	m["core.dumped_bytes"] = c("rapilog.dumped_bytes")

	m["disk.writes_per_commit"] = perCommit("disk.writes")
	m["disk.sectors_per_commit"] = perCommit("disk.sectors_written")
	m["disk.flushes_per_commit"] = perCommit("disk.flushes")
	m["disk.write_p50_us"] = p("disk.write_latency", 0.50)
	m["disk.write_p99_us"] = p("disk.write_latency", 0.99)
	// Little's law: residence time summed over requests ÷ elapsed time is
	// the mean number of requests inside the device (service + queue).
	m["disk.inflight_mean"] = ratio(float64(lc.sums["disk.write_latency"]+lc.sums["disk.read_latency"]), float64(lc.virt))

	m["replica.quorum_wait_p50_us"] = p("rapilog.quorum_wait", 0.50)
	m["replica.ack_p50_us"] = p("repl.standby.ack_latency", 0.50)
	m["replica.net_msgs_per_record"] = ratio(c("net.sent"), c("repl.shipped"))
	m["replica.shipped_per_commit"] = perCommit("repl.shipped")
	m["replica.resends"] = c("repl.resends")
	m["replica.lag_peak"] = float64(lc.peaks["repl.lag"])
	m["replica.retained_peak_mb"] = float64(lc.peaks["repl.retained_bytes"]) / (1 << 20)

	m["netsim.sent_per_commit"] = perCommit("net.sent")
	m["netsim.dropped"] = c("net.dropped") + c("net.partition_drops")

	m["ha.redirects"] = c("ha.redirects")
	m["ha.fence_rejections"] = c("ha.fence_rejections")
}

// latencyMetrics fills in the three virtual-clock latency metrics of a
// fault workload from the histograms its trials' engines accumulated.
func (lc *layerCounts) latencyMetrics(m results) {
	ack, txn := lc.hist("engine.commit.ack_latency"), lc.hist("engine.txn_latency")
	m["commit_ack_p50_us"] = us(histQuantile(ack, 0.50))
	m["commit_ack_p99_us"] = us(histQuantile(ack, 0.99))
	m["txn_p99_us"] = us(histQuantile(txn, 0.99))
}

// trialSeed is the seed of a fault workload's i-th trial.
func trialSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// layerOf names the layer a per-layer metric belongs to: the part of its
// name before the first dot.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// Per-layer metrics with a source on some workloads only. Where a layer is
// not on a workload's path they are reported as 0, by name, so that a
// declared metric nobody computes still fails the run.
var (
	failoverOnly = append(haStages[:], "ha.takeover_p50_ms", "ha.takeover_p90_ms", "replica.replay_bytes")
	powercutOnly = []string{"power.holdup_ms", "power.dump_margin_ms", "core.dump_ms", "core.dump_entries"}
	trialOnly    = []string{"faultinject.acked_per_trial", "faultinject.rss_growth_mb_per_trial"}
)

func offPath(m results, groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			m[name] = 0
		}
	}
}

// analyzeTrace turns one traced deployment's dump into the metrics only a
// trace can give: the price of the instruments (obs.*), the commit critical
// path either side of the log force (engine.*_force_*), and the exposure
// audit behind the safety claim (core.*; bound 0 means no RapiLog device).
func analyzeTrace(dump obs.TraceDump, bound int64, end time.Duration, spans *spanLog, parent int, out *outcome) error {
	m := out.metrics
	sp := spans.open(parent, "obs", "obs.Analyze", end)
	t0 := time.Now()
	an, err := obs.Analyze(dump, 0)
	m["obs.analyze_host_ms"] = ms(float64(time.Since(t0).Nanoseconds()))
	spans.close(sp, end)
	if err != nil {
		return fmt.Errorf("obs.Analyze: %w", err)
	}
	m["obs.trace_dropped"] = float64(dump.Dropped)
	m["obs.chain_complete_share"] = an.Chains.Ratio()
	m["engine.pre_force_p50_us"] = us(histQuantile(an.Critical.PreForce, 0.50))
	m["engine.post_force_p50_us"] = us(histQuantile(an.Critical.PostForce, 0.50))
	if dump.Dropped > 0 {
		out.problem("trace ring dropped %d events; raise traceCapacity", dump.Dropped)
	}

	m["core.peak_exposure_share"], m["core.ack_to_durable_p99_us"] = 0, 0
	if bound == 0 {
		return nil
	}
	events, err := dump.DecodedEvents()
	if err != nil {
		return err
	}
	sp = spans.open(parent, "obs", "obs.AuditExposure", end)
	exp := obs.AuditExposure(events, bound, dump.Dropped > 0)
	spans.close(sp, end)
	m["core.peak_exposure_share"] = ratio(float64(exp.PeakBytes), float64(exp.Bound))
	m["core.ack_to_durable_p99_us"] = us(histQuantile(exp.AckToDurable, 0.99))
	if exp.Violated() {
		out.problem("%s", exp.Verdict())
	}
	return nil
}
