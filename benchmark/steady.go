package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The four steady workloads: a closed-loop client pool (each client sends
// its next transaction only when the previous one returned — the paper's
// saturation methodology) against one deployment for a fixed span of
// virtual time.

// steadyDef is one steady workload at -seconds 10. Virtual durations scale
// linearly with -seconds, so the same flag value always buys the same
// simulated work, whatever the host's speed.
type steadyDef struct {
	mode    rig.Mode
	policy  core.AckPolicy
	newWL   func() workload.Workload
	retries int           // lock-timeout retries per transaction
	virt    time.Duration // measured virtual interval
	warm    time.Duration // warm-up before it, part of set-up
	// pause idles between the repetitions of a timed run so that they span
	// ≈14 s of wall time: interference on a shared box comes in bursts and
	// phases of up to that length, and the fastest repetition is only as
	// good as the calmest moment the run saw.
	pause time.Duration
}

const (
	steadyClients = 8
	// steadyReps same-seed repetitions per timed run. Virtual-clock metrics
	// and allocations report the median repetition (same-seed virtual results
	// are not bit-identical today, see sim.virt_spread_ppm); host-clock
	// metrics report the fastest one (see fastest).
	steadyReps = 9
	// A traced run makes tracedBaseReps untraced repetitions (the baseline
	// for trace overhead and same-seed spread) and one traced repetition,
	// all of half the virtual length: obs.Analyze is quadratic in the number
	// of log forces (15 s for a trace of 52 k TPC-B commits).
	tracedBaseReps = 3
	tracedShare    = 0.5
	// traceCapacity holds every event of the largest traced repetition or
	// trial with room to spare, so obs.trace_dropped stays 0.
	traceCapacity = 1 << 21
)

// TPC-B and TPC-C contend on a few hot rows; with enough retries every
// deadlock victim eventually commits, so no transaction fails (with 10
// retries, one TPC-C transaction in ≈400 000 still gave up).
var steadyDefs = map[string]steadyDef{
	"tpcb_rapilog": {
		mode: rig.RapiLog, retries: 100,
		newWL: func() workload.Workload { return &workload.TPCB{} },
		virt:  950 * time.Millisecond, warm: 100 * time.Millisecond,
		pause: 700 * time.Millisecond,
	},
	"tpcb_sync": {
		mode: rig.NativeSync, retries: 100,
		newWL: func() workload.Workload { return &workload.TPCB{} },
		virt:  85 * time.Second, warm: 8 * time.Second,
		pause: 500 * time.Millisecond,
	},
	"tpcc_rapilog": {
		// 1 warehouse × 10 districts × 10 customers + 200 items: the whole
		// data set fits the engine's 4 096-page buffer pool.
		mode: rig.RapiLog, retries: 100,
		newWL: func() workload.Workload { return &workload.TPCC{Warehouses: 1, Customers: 10, Items: 200} },
		virt:  470 * time.Millisecond, warm: 50 * time.Millisecond,
		pause: 700 * time.Millisecond,
	},
	"stress_quorum": {
		// Short on purpose: the standby arenas grow ≈50 MB per virtual
		// second and nothing frees a finished rig.
		mode: rig.RapiLogReplica, policy: core.AckQuorum(1), retries: 3,
		newWL: func() workload.Workload { return &workload.Stress{ValueSize: 1000} },
		virt:  2200 * time.Millisecond, warm: 200 * time.Millisecond,
		pause: 1400 * time.Millisecond,
	},
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// repStats is one repetition of a steady workload.
type repStats struct {
	res workload.RunResult

	// Host clock.
	buildNs, bootNs, loadNs int64
	setupNs                 int64 // rep start → first measured operation
	measuredNs              int64 // the measured interval
	cpuNs                   int64 // process CPU time over the measured interval
	totalNs                 int64 // whole repetition
	mallocs                 uint64

	lc      *layerCounts
	rig     *rig.Rig
	journal workload.VerifyResult // traced repetitions only
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// steadyRep builds a fresh deployment and runs one repetition on it. With
// traced set the rig carries the tracer and the clients a Journal, which
// is verified in full when the clients stop.
func steadyRep(def steadyDef, seed int64, scale float64, traced bool, spans *spanLog, parent int) (*repStats, error) {
	st := &repStats{}
	virt, warm := scaleDur(def.virt, scale), scaleDur(def.warm, scale)
	cfg := rig.Config{Seed: seed, Mode: def.mode, AckPolicy: def.policy}
	var journal *workload.Journal
	if traced {
		cfg.Trace, cfg.TraceCapacity = true, traceCapacity
		journal = workload.NewJournal()
	}
	spans.collect(parent)

	repSpan := spans.open(parent, harnessLayer, "repetition", 0)
	t0 := time.Now()
	sp := spans.open(repSpan, "rig", "rig.New", 0)
	r, err := rig.New(cfg)
	spans.close(sp, 0)
	if err != nil {
		return nil, fmt.Errorf("rig.New: %w", err)
	}
	st.rig = r
	st.buildNs = time.Since(t0).Nanoseconds()

	wl := def.newWL()
	reg := r.Obs.Registry()
	done := r.S.NewEvent("bench.done")
	var runErr error
	r.S.Spawn(r.Plat.Domain(), "bench.driver", func(p *sim.Proc) {
		defer done.Fire()
		now := func() time.Duration { return p.Now().Duration() }

		sp := spans.open(repSpan, "engine", "rig.Boot", now())
		tb := time.Now()
		e, err := r.Boot(p)
		st.bootNs = time.Since(tb).Nanoseconds()
		spans.close(sp, now())
		if err != nil {
			runErr = fmt.Errorf("boot: %w", err)
			return
		}

		sp = spans.open(repSpan, "workload", "Workload.Load", now())
		tl := time.Now()
		err = wl.Load(p, e)
		st.loadNs = time.Since(tl).Nanoseconds()
		spans.close(sp, now())
		if err != nil {
			runErr = fmt.Errorf("load: %w", err)
			return
		}

		// The marker wakes at the virtual instant RunClients starts
		// counting, and pins down the host-side state of that instant.
		var (
			base   obs.Snapshot
			store0 storeCounts
			m0, m1 runtime.MemStats
			d0     uint64
			cpu0   int64
			tMark  time.Time
		)
		r.S.Spawn(nil, "bench.marker", func(mp *sim.Proc) {
			mp.Sleep(warm)
			base = reg.Snapshot()
			store0 = readStore(e)
			d0 = r.S.Dispatched()
			runtime.ReadMemStats(&m0)
			cpu0 = cpuTime()
			tMark = time.Now()
		})
		sp = spans.open(repSpan, "workload", "workload.RunClients", now())
		st.res = workload.RunClients(p, r.Plat.Domain(), e, wl, workload.RunnerConfig{
			Clients: steadyClients, Duration: virt, Warmup: warm,
			Retries: def.retries, Journal: journal,
		})
		tEnd := time.Now()
		spans.close(sp, now())
		if tMark.IsZero() {
			runErr = fmt.Errorf("clients stopped before the measured interval began")
			return
		}
		st.cpuNs = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		st.mallocs = m1.Mallocs - m0.Mallocs
		st.setupNs = tMark.Sub(t0).Nanoseconds()
		st.measuredNs = tEnd.Sub(tMark).Nanoseconds()

		lc := newLayerCounts()
		lc.addRegistry(reg, &base)
		lc.addStore(e, store0)
		lc.commits = st.res.Committed
		lc.virt = st.res.Duration
		lc.events = r.S.Dispatched() - d0
		lc.hostNs = st.measuredNs
		st.lc = lc

		if journal != nil {
			sp = spans.open(repSpan, "workload", "Journal.Verify", now())
			st.journal, err = journal.Verify(p, e)
			spans.close(sp, now())
			if err != nil {
				runErr = fmt.Errorf("journal verify: %w", err)
				return
			}
		}
	})
	err = r.S.RunUntilEvent(done)
	st.totalNs = time.Since(t0).Nanoseconds()
	spans.close(repSpan, r.S.Now().Duration())
	if err == nil {
		err = runErr
	}
	return st, err
}

func (st *repStats) hostUsPerCommit() float64 {
	return ratio(us(float64(st.measuredNs)), float64(st.res.Committed))
}

// outcome is what any workload hands back to main.
type outcome struct {
	metrics   results
	spreads   results // same-seed repetition spread of the host-clock metrics
	attempted int64
	failed    int64
	lostAcked int64
	problems  []string           // failed correctness checks
	detail    map[string]float64 // context for the record file
}

func newOutcome() *outcome {
	return &outcome{metrics: results{}, spreads: results{}, detail: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func runSteady(def steadyDef, seed int64, scale float64, spans *spanLog, root int) (*outcome, error) {
	out := newOutcome()
	traced := spans != nil
	nReps := steadyReps
	if traced {
		nReps, scale = tracedBaseReps, scale*tracedShare
	}
	var reps []*repStats
	for i := 0; i < nReps; i++ {
		if i > 0 && !traced {
			time.Sleep(scaleDur(def.pause, scale))
		}
		st, err := steadyRep(def, seed, scale, false, spans, root)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		reps = append(reps, st)
	}
	first := reps[0]
	col := func(f func(*repStats) float64) []float64 { return column(reps, f) }
	committed := col(func(st *repStats) float64 { return float64(st.res.Committed) })
	hostPerCommit := col((*repStats).hostUsPerCommit)

	for i, st := range reps {
		out.attempted += st.res.Committed + st.res.Aborted
		out.failed += st.res.Aborted
		if st.res.Committed == 0 {
			out.problem("repetition %d committed nothing", i)
		}
	}
	out.detail["committed"] = float64(first.res.Committed)
	out.detail["aborted_after_retries"] = float64(first.res.Aborted)
	out.detail["virt_spread_ppm"] = 1e6 * relSpread(committed)
	out.detail["cpu_us_per_commit"] = median(col(func(st *repStats) float64 {
		return ratio(us(float64(st.cpuNs)), float64(st.res.Committed))
	}))

	if !traced {
		setup := col(func(st *repStats) float64 { return float64(st.setupNs) / 1e9 })
		total := col(func(st *repStats) float64 { return ms(float64(st.totalNs)) })
		ackQ := func(q float64) func(*repStats) float64 {
			return func(st *repStats) float64 { return us(histQuantile(st.lc.hist("engine.commit.ack_latency"), q)) }
		}
		for name, xs := range map[string][]float64{
			"virt_tps":          col(func(st *repStats) float64 { return st.res.TPS() }),
			"commit_ack_p50_us": col(ackQ(0.50)),
			"commit_ack_p99_us": col(ackQ(0.99)),
			"txn_p99_us":        col(func(st *repStats) float64 { return us(histQuantile(st.res.TxnLatency, 0.99)) }),
			"allocs_per_commit": col(func(st *repStats) float64 { return ratio(float64(st.mallocs), float64(st.res.Committed)) }),
		} {
			out.metrics[name] = median(xs)
			out.spreads[name] = relSpread(xs)
		}
		for name, xs := range map[string][]float64{"setup_s": setup, "host_us_per_commit": hostPerCommit, "host_ms_per_trial": total} {
			out.metrics[name] = fastest(xs)
			out.spreads[name] = relSpread(xs)
		}
		return out, nil
	}

	// Traced run: one more repetition with the tracer and a Journal on.
	tr, err := steadyRep(def, seed, scale, true, spans, root)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	out.lostAcked = int64(tr.journal.Missing + tr.journal.Mismatched)
	if tr.journal.Checked == 0 {
		out.problem("traced repetition verified no journal entries")
	}
	if out.lostAcked > 0 {
		out.problem("journal: %s", tr.journal)
	}
	if mon := tr.rig.Monitor; mon != nil && mon.Total() > 0 {
		out.problem("online monitor reported %d invariant violations", mon.Total())
	}

	m := out.metrics
	first.lc.registryMetrics(m)
	m["sim.virt_spread_ppm"] = 1e6 * relSpread(committed)
	m["rig.build_host_ms"] = median(col(func(st *repStats) float64 { return ms(float64(st.buildNs)) }))
	m["rig.boot_host_ms"] = median(col(func(st *repStats) float64 { return ms(float64(st.bootNs)) }))
	m["workload.load_host_ms"] = median(col(func(st *repStats) float64 { return ms(float64(st.loadNs)) }))

	end := tr.rig.S.Now().Duration()
	sp := spans.open(root, "obs", "Tracer.Dump", end)
	dump := tr.rig.Obs.Tracer().Dump()
	spans.close(sp, end)
	if err := analyzeTrace(dump, tr.rig.SafeBound(), end, spans, root, out); err != nil {
		return nil, err
	}
	m["obs.trace_overhead_pct"] = 100 * (ratio(tr.hostUsPerCommit(), fastest(hostPerCommit)) - 1)
	m["obs.trace_events_per_commit"] = ratio(float64(dump.Emitted), float64(tr.rig.Obs.Registry().Counter("engine.commits").Value()))
	offPath(m, failoverOnly, powercutOnly, trialOnly)
	return out, nil
}
