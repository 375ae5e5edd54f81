package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The failover workload: a 3-node HA cluster under redirect-aware session
// load loses its leader to a plug-pull; the coordinator detects, elects,
// fences and promotes; the trial ends at the first commit the promoted
// leader serves, and every acknowledged operation is then audited on it.

const (
	failoverSeeds    = 24 // trials per run at -seconds 10, seeds seed·1000 + i
	failoverSessions = 4
	failoverCutAt    = 500 * time.Millisecond
	failoverGiveUp   = 3 * time.Minute // virtual; a takeover takes ≈6 s
	// failoverPause idles between the trials of a timed run (see
	// steadyDef.pause): 24 trials take 1.3 s back to back.
	failoverPause = 500 * time.Millisecond
)

// haStages names the consecutive legs of a takeover; they sum to it.
var haStages = [4]string{"ha.detect_ms", "ha.elect_to_fence_ms", "ha.fence_to_promote_ms", "ha.promote_to_first_commit_ms"}

type failoverTrial struct {
	ackedAtCut int           // journal length when the plug was pulled
	acked      int           // journal length at the end (all audited)
	takeover   time.Duration // plug-pull → first commit on the promoted leader
	stages     [4]time.Duration
	endVirt    time.Duration // virtual length of the trial
	verify     workload.VerifyResult
	problem    string // why the trial counts as failed, if it does

	buildNs, bootNs int64
	setupNs         int64 // trial start → leader booted, sessions released
	serveNs         int64 // sessions released → plug pulled
	totalNs         int64
	mallocs         uint64
	events          uint64

	cluster *rig.Cluster
	engines []*engine.Engine // every generation's engine
}

func failoverTrialRun(seed int64, spans *spanLog, parent int) (*failoverTrial, error) {
	ft := &failoverTrial{}
	spans.collect(parent)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	trial := spans.open(parent, harnessLayer, "trial", 0)
	t0 := time.Now()
	sp := spans.open(trial, "rig", "rig.NewCluster", 0)
	c, err := rig.NewCluster(rig.ClusterConfig{
		Nodes: 3,
		Rig:   rig.Config{Seed: seed, AckPolicy: core.AckQuorum(1)},
	})
	spans.close(sp, 0)
	if err != nil {
		return nil, fmt.Errorf("rig.NewCluster: %w", err)
	}
	ft.cluster = c
	ft.buildNs = time.Since(t0).Nanoseconds()

	s := c.S
	now := func() time.Duration { return s.Now().Duration() }
	dir := workload.NewDirectory()
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		ft.engines = append(ft.engines, e)
		dir.Update(gen, name, e, dom)
	}
	journal := workload.NewJournal()
	stress := &workload.Stress{ValueSize: 1000}

	var runErr error
	var tServe time.Time
	serve := 0
	booted := s.NewEvent("bench.booted")
	s.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		defer booted.Fire()
		sp := spans.open(trial, "engine", "Rig.Boot", now())
		tb := time.Now()
		e, err := c.LeaderRig().Boot(p)
		ft.bootNs = time.Since(tb).Nanoseconds()
		spans.close(sp, now())
		if err != nil {
			runErr = fmt.Errorf("boot: %w", err)
			return
		}
		ft.engines = append(ft.engines, e)
		dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
		tServe = time.Now()
		ft.setupNs = tServe.Sub(t0).Nanoseconds()
		serve = spans.open(trial, "workload", "workload.RunSessions", now())
	})
	// The sessions outlive the trial: it ends at the first commit of
	// generation 2, long before their nominal duration.
	s.Spawn(nil, "sessions", func(p *sim.Proc) {
		booted.Wait(p)
		workload.RunSessions(p, dir, stress, workload.SessionConfig{
			Clients: failoverSessions, Duration: 10 * time.Minute, Journal: journal,
			Reg: c.Obs.Registry(), Trace: c.Obs.Tracer(),
		})
	})

	done := s.NewEvent("bench.done")
	var cutAt time.Duration
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		defer done.Fire()
		p.Sleep(failoverCutAt)
		if runErr != nil {
			return
		}
		cutAt = now()
		ft.ackedAtCut = journal.Len()
		ft.serveNs = time.Since(tServe).Nanoseconds()
		spans.close(serve, cutAt)
		sp := spans.open(trial, "power", "Cluster.CutLeaderPower", cutAt)
		c.CutLeaderPower()
		spans.close(sp, cutAt)

		sp = spans.open(trial, "ha", "takeover", cutAt)
		for deadline := p.Now().Add(failoverGiveUp); p.Now() < deadline; p.Sleep(50 * time.Millisecond) {
			if _, ok := dir.FirstSuccess(2); ok {
				break
			}
		}
		spans.close(sp, now())
		first, ok := dir.FirstSuccess(2)
		if !ok || first <= cutAt {
			ft.problem = fmt.Sprintf("no commit on a promoted leader (failovers %d, last error %v)",
				c.Coord.Failovers(), c.Coord.LastErr())
			return
		}
		ft.takeover = first - cutAt
		ft.endVirt = first

		// Audit on whoever leads now, inside its guest like any client.
		ld := dir.Leader()
		ft.acked = journal.Len()
		audited := s.NewEvent("bench.audited")
		s.Spawn(ld.Dom, "audit", func(vp *sim.Proc) {
			defer audited.Fire()
			sp := spans.open(trial, "workload", "Journal.Verify", now())
			vr, err := journal.VerifyFirst(vp, ld.Eng, ft.acked)
			spans.close(sp, now())
			if err != nil {
				runErr = fmt.Errorf("audit: %w", err)
				return
			}
			ft.verify = vr
		})
		audited.Wait(p)
	})

	err = s.RunUntilEvent(done)
	ft.totalNs = time.Since(t0).Nanoseconds()
	spans.close(trial, now())
	runtime.ReadMemStats(&m1)
	ft.mallocs = m1.Mallocs - m0.Mallocs
	ft.events = s.Dispatched()
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	if ft.problem == "" {
		ft.problem = ft.stageTimes(cutAt)
	}
	return ft, nil
}

// stageTimes splits the takeover at the coordinator's trace marks. The
// cluster always traces (the online monitor is its split-brain detector),
// so the marks are there on timed runs too.
func (ft *failoverTrial) stageTimes(cutAt time.Duration) string {
	tr := ft.cluster.Obs.Tracer()
	if tr.Dropped() > 0 {
		return fmt.Sprintf("cluster trace ring dropped %d events", tr.Dropped())
	}
	marks := map[obs.Kind]time.Duration{}
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.EvElect, obs.EvFence, obs.EvPromote:
			if _, seen := marks[e.Kind]; !seen && e.At >= cutAt {
				marks[e.Kind] = e.At
			}
		}
	}
	if len(marks) != 3 {
		return fmt.Sprintf("takeover left %d of 3 elect/fence/promote marks", len(marks))
	}
	edges := [5]time.Duration{cutAt, marks[obs.EvElect], marks[obs.EvFence], marks[obs.EvPromote], cutAt + ft.takeover}
	for i := range ft.stages {
		ft.stages[i] = edges[i+1] - edges[i]
		if ft.stages[i] < 0 {
			return fmt.Sprintf("takeover stage %s is negative", haStages[i])
		}
	}
	return ""
}

func runFailover(seed int64, scale float64, spans *spanLog, root int) (*outcome, error) {
	out := newOutcome()
	n := max(2, int(failoverSeeds*scale+0.5))
	var trials []*failoverTrial
	lc := newLayerCounts()
	rss0 := peakRSSMB()
	for i := 0; i < n; i++ {
		if i > 0 && spans == nil {
			time.Sleep(scaleDur(failoverPause, scale))
		}
		ft, err := failoverTrialRun(trialSeed(seed, i), spans, root)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", trialSeed(seed, i), err)
		}
		trials = append(trials, ft)
		lc.addRegistry(ft.cluster.Obs.Registry(), nil)
		for _, e := range ft.engines {
			lc.addStore(e, storeCounts{})
		}
	}

	col := func(f func(*failoverTrial) float64) []float64 { return column(trials, f) }
	sum := func(f func(*failoverTrial) float64) float64 { return total(col(f)) }
	acked := sum(func(ft *failoverTrial) float64 { return float64(ft.acked) })
	for i, ft := range trials {
		out.attempted += int64(ft.acked)
		lost := int64(ft.verify.Missing + ft.verify.Mismatched)
		out.lostAcked += lost
		out.failed += lost
		if ft.problem != "" {
			out.failed++
			out.problem("seed %d: %s", trialSeed(seed, i), ft.problem)
		}
		if lost > 0 {
			out.problem("seed %d: %s", trialSeed(seed, i), ft.verify)
		}
		if f := ft.cluster.Coord.Failovers(); f != 1 {
			out.problem("seed %d: %d failovers, want exactly 1", trialSeed(seed, i), f)
		}
		if v := ft.cluster.Monitor.Total(); v > 0 {
			out.problem("seed %d: online monitor reported %d invariant violations", trialSeed(seed, i), v)
		}
		var stages time.Duration
		for _, d := range ft.stages {
			stages += d
		}
		if ft.problem == "" && stages != ft.takeover {
			out.problem("seed %d: stages sum to %v, takeover is %v", trialSeed(seed, i), stages, ft.takeover)
		}
	}
	if acked == 0 {
		out.problem("no operation was acknowledged")
	}
	takeovers := col(func(ft *failoverTrial) float64 { return ms(float64(ft.takeover)) })
	out.detail["trials"] = float64(n)
	out.detail["acked"] = acked
	out.detail["takeover_p50_ms"] = median(takeovers)

	if spans == nil {
		m := out.metrics
		lc.latencyMetrics(m)
		m["setup_s"] = fastest(col(func(ft *failoverTrial) float64 { return float64(ft.setupNs) / 1e9 }))
		// Goodput across the outage: what the sessions got committed per
		// virtual second from power-on to the first commit after the
		// takeover. A shorter takeover window raises it.
		m["virt_tps"] = ratio(acked, sum(func(ft *failoverTrial) float64 { return ft.endVirt.Seconds() }))
		m["host_us_per_commit"] = fastest(col(func(ft *failoverTrial) float64 {
			return ratio(us(float64(ft.serveNs)), float64(ft.ackedAtCut))
		}))
		m["allocs_per_commit"] = ratio(sum(func(ft *failoverTrial) float64 { return float64(ft.mallocs) }), acked)
		total := col(func(ft *failoverTrial) float64 { return ms(float64(ft.totalNs)) })
		m["host_ms_per_trial"] = fastest(total)
		out.spreads["host_ms_per_trial"] = relSpread(total)
		return out, nil
	}

	// Traced run: the first seed once more, for the same-seed spread.
	again, err := failoverTrialRun(trialSeed(seed, 0), spans, root)
	if err != nil {
		return nil, fmt.Errorf("repeat of seed %d: %w", trialSeed(seed, 0), err)
	}
	lc.commits = int64(acked)
	lc.virt = time.Duration(sum(func(ft *failoverTrial) float64 { return float64(ft.endVirt) }))
	lc.events = uint64(sum(func(ft *failoverTrial) float64 { return float64(ft.events) }))
	lc.hostNs = int64(sum(func(ft *failoverTrial) float64 { return float64(ft.totalNs) }))
	m := out.metrics
	lc.registryMetrics(m)
	m["sim.virt_spread_ppm"] = 1e6 * relSpread([]float64{float64(trials[0].acked), float64(again.acked)})
	m["rig.build_host_ms"] = median(col(func(ft *failoverTrial) float64 { return ms(float64(ft.buildNs)) }))
	m["rig.boot_host_ms"] = median(col(func(ft *failoverTrial) float64 { return ms(float64(ft.bootNs)) }))
	m["workload.load_host_ms"] = 0 // the stress workload loads nothing
	for i, name := range haStages {
		m[name] = median(col(func(ft *failoverTrial) float64 { return ms(float64(ft.stages[i])) }))
	}
	m["ha.takeover_p50_ms"] = median(takeovers)
	m["ha.takeover_p90_ms"] = quantileOf(takeovers, 0.90)
	m["replica.replay_bytes"] = sum(func(ft *failoverTrial) float64 { return float64(ft.cluster.LastReplay.Bytes) }) / float64(n)
	m["faultinject.acked_per_trial"] = acked / float64(n)
	m["faultinject.rss_growth_mb_per_trial"] = (peakRSSMB() - rss0) / float64(n+1)

	// The first seed stands in for the price of the instruments.
	c := trials[0].cluster
	end := c.S.Now().Duration()
	sp := spans.open(root, "obs", "Tracer.Dump", end)
	dump := c.Obs.Tracer().Dump()
	spans.close(sp, end)
	if err := analyzeTrace(dump, c.LeaderRig().SafeBound(), end, spans, root, out); err != nil {
		return nil, err
	}
	m["obs.trace_overhead_pct"] = 0 // a cluster cannot run untraced
	m["obs.trace_events_per_commit"] = ratio(float64(dump.Emitted), float64(trials[0].acked))
	offPath(m, powercutOnly)
	return out, nil
}
