package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The powercut workload: sequential faultinject.RunTrial plug-pull trials on
// the RapiLog deployment — load, serve, cut mains, hold-up dump, reboot,
// dump replay, WAL redo, audit of every pre-cut acknowledgement.

const (
	powercutTrials  = 8 // seeds seed·1000 + i
	powercutClients = 4
	// RunTrial samples the plug-pull instant between its two bounds; the
	// benchmark pins both (to this, at -seconds 10) so every trial serves
	// the same virtual time and host time per trial does not depend on the
	// draw.
	powercutCutAfter = 600 * time.Millisecond
	// powercutPause idles between the trials of a timed run (see
	// steadyDef.pause).
	powercutPause = 900 * time.Millisecond
)

func powercutConfig(scale float64, traced bool, newWL func() workload.Workload) faultinject.CampaignConfig {
	cutAfter := scaleDur(powercutCutAfter, scale)
	cfg := faultinject.CampaignConfig{
		Rig:            rig.Config{Mode: rig.RapiLog},
		Fault:          faultinject.PowerCut,
		Clients:        powercutClients,
		InjectAfterMin: cutAfter,
		InjectAfterMax: cutAfter,
		NewWorkload:    newWL,
	}
	if traced {
		cfg.Rig.Trace, cfg.Rig.TraceCapacity = true, traceCapacity
	}
	return cfg
}

// tap is the benchmark's window into a RunTrial: the trial constructs its
// workload after building the rig and calls Load after booting, so a
// workload that notes when it is constructed, loaded and first driven sees
// every stage boundary — and the engine it is handed leads to the
// deployment's registry and simulator.
type tap struct {
	workload.Workload
	t0 time.Time // RunTrial called

	built, loadStart, loadEnd time.Time
	loadEndVirt               time.Duration
	firstOp                   time.Time
	firstOpVirt               time.Duration
	acks                      []ackMark // one per committed transaction
	aborted                   int64
	eng                       *engine.Engine
	sim                       *sim.Sim
}

// ackMark is when one committed transaction returned, on both clocks.
type ackMark struct {
	host time.Time
	virt time.Duration
}

func (t *tap) Load(p *sim.Proc, e *engine.Engine) error {
	t.eng, t.sim = e, p.Sim()
	t.loadStart = time.Now()
	err := t.Workload.Load(p, e)
	t.loadEnd, t.loadEndVirt = time.Now(), p.Now().Duration()
	return err
}

func (t *tap) Do(p *sim.Proc, e *engine.Engine, j *workload.Journal) error {
	if t.firstOp.IsZero() {
		t.firstOp, t.firstOpVirt = time.Now(), p.Now().Duration()
	}
	if err := t.Workload.Do(p, e, j); err != nil {
		t.aborted++
		return err
	}
	t.acks = append(t.acks, ackMark{time.Now(), p.Now().Duration()})
	return nil
}

type powercutTrial struct {
	res       faultinject.TrialResult
	tap       *tap
	committed int           // transactions returned by the time of the cut
	serveNs   int64         // first transaction → cut
	serveVirt time.Duration // the same, virtual
	setupNs   int64         // RunTrial called → first transaction
	totalNs   int64
	mallocs   uint64
}

func powercutTrialRun(seed int64, scale float64, traced bool, spans *spanLog, parent int) (*powercutTrial, error) {
	pt := &powercutTrial{}
	spans.collect(parent)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	tp := &tap{}
	cfg := powercutConfig(scale, traced, func() workload.Workload {
		tp.built = time.Now()
		// RunTrial's own default: a small TPC-C.
		tp.Workload = &workload.TPCC{Warehouses: 1, Districts: 4, Customers: 20, Items: 200}
		return tp
	})
	trial := spans.open(parent, harnessLayer, "trial", 0)
	call := spans.open(trial, "faultinject", "faultinject.RunTrial", 0)
	tp.t0 = time.Now()
	pt.res = faultinject.RunTrial(cfg, seed)
	end := time.Now()
	pt.totalNs = end.Sub(tp.t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	pt.mallocs = m1.Mallocs - m0.Mallocs
	pt.tap = tp
	if pt.res.Err != nil {
		return pt, nil // a failed trial is an outcome, not a harness error
	}
	if tp.sim == nil || len(tp.acks) == 0 {
		return nil, fmt.Errorf("seed %d: the trial never drove its workload", seed)
	}

	// RunTrial pulls the plug cutAfter after Load returns. Read-only
	// transactions keep returning through the hold-up window that follows
	// (the dump only blocks the log), so the cut is taken from the clock,
	// not from the journal.
	cutVirt := tp.loadEndVirt + cfg.InjectAfterMin
	pt.committed = sort.Search(len(tp.acks), func(i int) bool { return tp.acks[i].virt > cutVirt })
	if pt.committed == 0 {
		return nil, fmt.Errorf("seed %d: no transaction committed before the cut", seed)
	}
	cut := tp.acks[pt.committed-1]
	pt.setupNs = tp.firstOp.Sub(tp.t0).Nanoseconds()
	pt.serveNs = cut.host.Sub(tp.firstOp).Nanoseconds()
	pt.serveVirt = cutVirt - tp.firstOpVirt

	endVirt := tp.sim.Now().Duration()
	spans.close(call, endVirt)
	spans.close(trial, endVirt)
	spans.record(call, "rig", "rig.New", tp.t0, tp.built, 0, 0)
	spans.record(call, "engine", "Rig.Boot", tp.built, tp.loadStart, 0, 0)
	spans.record(call, "workload", "Workload.Load", tp.loadStart, tp.loadEnd, 0, tp.firstOpVirt)
	spans.record(call, "workload", "client transactions", tp.firstOp, cut.host, tp.firstOpVirt, cutVirt)
	return pt, nil
}

func runPowercut(seed int64, scale float64, spans *spanLog, root int) (*outcome, error) {
	out := newOutcome()
	traced := spans != nil
	n := powercutTrials
	if traced {
		n = 2 // each seed runs untraced and traced
	}
	var trials []*powercutTrial
	lc := newLayerCounts()
	rss0 := peakRSSMB()
	for i := 0; i < n; i++ {
		if i > 0 && !traced {
			time.Sleep(scaleDur(powercutPause, scale))
		}
		pt, err := powercutTrialRun(trialSeed(seed, i), scale, false, spans, root)
		if err != nil {
			return nil, err
		}
		trials = append(trials, pt)
	}
	rssGrowth := (peakRSSMB() - rss0) / float64(n)

	col := func(f func(*powercutTrial) float64) []float64 { return column(trials, f) }
	sum := func(f func(*powercutTrial) float64) float64 { return total(col(f)) }
	audit := func(i int, pt *powercutTrial) {
		out.attempted += int64(pt.res.Acked)
		lost := int64(pt.res.Missing + pt.res.Mismatched)
		out.lostAcked += lost
		out.failed += lost
		switch {
		case pt.res.Err != nil:
			out.failed++
			out.problem("seed %d: %v", trialSeed(seed, i), pt.res.Err)
		case lost > 0:
			out.problem("seed %d: %d acked obligations missing, %d mismatched", trialSeed(seed, i), pt.res.Missing, pt.res.Mismatched)
		case pt.res.Acked == 0:
			out.problem("seed %d: nothing was acknowledged before the cut", trialSeed(seed, i))
		case !pt.res.HadDump:
			out.problem("seed %d: recovery found no emergency dump", trialSeed(seed, i))
		}
	}
	for i, pt := range trials {
		audit(i, pt)
		if pt.res.Err == nil {
			reg := pt.tap.eng.Config().Obs.Registry()
			lc.addRegistry(reg, nil)
			lc.addStore(pt.tap.eng, storeCounts{})
			lc.events += pt.tap.sim.Dispatched()
		}
	}
	if len(out.problems) > 0 {
		return out, nil
	}
	committed := sum(func(pt *powercutTrial) float64 { return float64(pt.committed) })
	out.detail["trials"] = float64(n)
	out.detail["committed"] = committed
	out.detail["acked_obligations"] = float64(out.attempted)
	out.detail["deadlock_victims_retried"] = sum(func(pt *powercutTrial) float64 { return float64(pt.tap.aborted) })

	if !traced {
		m := out.metrics
		lc.latencyMetrics(m)
		m["setup_s"] = fastest(col(func(pt *powercutTrial) float64 { return float64(pt.setupNs) / 1e9 }))
		m["virt_tps"] = ratio(committed, sum(func(pt *powercutTrial) float64 { return pt.serveVirt.Seconds() }))
		m["host_us_per_commit"] = fastest(col(func(pt *powercutTrial) float64 {
			return ratio(us(float64(pt.serveNs)), float64(pt.committed))
		}))
		m["allocs_per_commit"] = ratio(sum(func(pt *powercutTrial) float64 { return float64(pt.mallocs) }), committed)
		total := col(func(pt *powercutTrial) float64 { return ms(float64(pt.totalNs)) })
		m["host_ms_per_trial"] = fastest(total)
		out.spreads["host_ms_per_trial"] = relSpread(total)
		return out, nil
	}

	// Traced run: the same seeds again with the tracer on. Tracing costs
	// host time only, so each pair is also a same-seed repeat.
	var tracedTrials []*powercutTrial
	for i := 0; i < n; i++ {
		pt, err := powercutTrialRun(trialSeed(seed, i), scale, true, spans, root)
		if err != nil {
			return nil, err
		}
		audit(i, pt)
		if pt.res.Err == nil && pt.res.MonitorViolations > 0 {
			out.problem("seed %d: online monitor reported %d invariant violations", trialSeed(seed, i), pt.res.MonitorViolations)
		}
		tracedTrials = append(tracedTrials, pt)
	}
	if len(out.problems) > 0 {
		return out, nil
	}

	lc.commits = int64(committed)
	lc.virt = time.Duration(sum(func(pt *powercutTrial) float64 { return float64(pt.tap.sim.Now()) }))
	lc.hostNs = int64(sum(func(pt *powercutTrial) float64 { return float64(pt.totalNs) }))
	m := out.metrics
	lc.registryMetrics(m)
	spread := 0.0
	for i := range trials {
		spread = math.Max(spread, relSpread([]float64{float64(trials[i].res.Acked), float64(tracedTrials[i].res.Acked)}))
	}
	m["sim.virt_spread_ppm"] = 1e6 * spread
	m["rig.build_host_ms"] = median(col(func(pt *powercutTrial) float64 { return msBetween(pt.tap.t0, pt.tap.built) }))
	m["rig.boot_host_ms"] = median(col(func(pt *powercutTrial) float64 { return msBetween(pt.tap.built, pt.tap.loadStart) }))
	m["workload.load_host_ms"] = median(col(func(pt *powercutTrial) float64 { return msBetween(pt.tap.loadStart, pt.tap.loadEnd) }))
	m["faultinject.acked_per_trial"] = float64(out.attempted) / float64(2*n)
	m["faultinject.rss_growth_mb_per_trial"] = rssGrowth

	// The emergency dump, read off each traced trial's own trace.
	var holdups, dumps, entries []float64
	margin := math.Inf(1)
	for i, pt := range tracedTrials {
		pd, err := powerMarks(pt.res.Artifacts.Trace)
		if err != nil {
			out.problem("seed %d: %v", trialSeed(seed, i), err)
			continue
		}
		holdups = append(holdups, ms(float64(pd.holdup)))
		dumps = append(dumps, ms(float64(pd.dumpDone-pd.dumpStart)))
		entries = append(entries, float64(pd.entries))
		margin = math.Min(margin, ms(float64(pd.powerFail+pd.holdup-pd.dumpDone)))
	}
	if len(out.problems) > 0 {
		return out, nil
	}
	m["power.holdup_ms"] = median(holdups)
	m["power.dump_margin_ms"] = margin
	m["core.dump_ms"] = median(dumps)
	m["core.dump_entries"] = median(entries)

	// The first traced trial stands in for the price of the instruments.
	tmpl, err := rig.New(powercutConfig(scale, false, nil).Rig) // for its exposure bound
	if err != nil {
		return nil, err
	}
	first := tracedTrials[0]
	if err := analyzeTrace(*first.res.Artifacts.Trace, tmpl.SafeBound(), first.tap.sim.Now().Duration(), spans, root, out); err != nil {
		return nil, err
	}
	tracedNs := 0.0
	for _, pt := range tracedTrials {
		tracedNs += float64(pt.totalNs)
	}
	m["obs.trace_overhead_pct"] = 100 * (ratio(tracedNs, sum(func(pt *powercutTrial) float64 { return float64(pt.totalNs) })) - 1)
	m["obs.trace_events_per_commit"] = ratio(float64(first.res.Artifacts.Trace.Emitted), float64(first.committed))
	offPath(m, failoverOnly)
	return out, nil
}

// powerMarksT are the plug-pull's trace events.
type powerMarksT struct {
	powerFail, holdup   time.Duration
	dumpStart, dumpDone time.Duration
	entries             int64
}

func powerMarks(d *obs.TraceDump) (powerMarksT, error) {
	var pm powerMarksT
	events, err := d.DecodedEvents()
	if err != nil {
		return pm, err
	}
	seen := 0
	for _, e := range events {
		switch e.Kind {
		case obs.EvPowerFail:
			pm.powerFail, pm.holdup = e.At, time.Duration(e.Arg1)
			seen |= 1
		case obs.EvDumpStart:
			pm.dumpStart = e.At
			seen |= 2
		case obs.EvDumpDone:
			pm.dumpDone, pm.entries = e.At, e.Arg1
			seen |= 4
		}
	}
	if seen != 7 {
		return pm, fmt.Errorf("trace lacks the power_fail/dump_start/dump_done marks (have %03b)", seen)
	}
	return pm, nil
}
