package faultinject

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the campaign engine: what every trial and campaign runs on
// whatever its fault or topology. A campaign is validate → runSeeded → fold
// (RunCampaign); a trial is build → load → inject → recover → audit, runs
// until its audit is done (runToAudit) and ends in finish. A new fault is a
// case in a trial body's operator process, a new topology is a trial body;
// neither is a new runner.

// runSeeded is the worker pool: it runs cfg.Trials trials with seeds
// Rig.Seed + i·7919, up to cfg.Parallel at a time (0 means GOMAXPROCS), and
// returns the results in seed order. Every trial is a sealed simulation whose
// schedule depends only on its seed, so the pool width changes wall-clock
// time and nothing else.
func runSeeded(cfg CampaignConfig) []TrialResult {
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	parallel = min(parallel, cfg.Trials)
	results := make([]TrialResult, cfg.Trials)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = RunTrial(cfg, cfg.Rig.Seed+int64(i)*7919)
			}
		}()
	}
	for i := range results {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// injectDelay samples how long after load a trial's operator waits before
// injecting, from the simulation's own generator. The workload's clients
// draw from the same generator, so the order of the draws is part of a
// seed's schedule: the operator must be waiting on `loaded` — and `loaded`
// must fire — before the first client process is spawned.
func injectDelay(s *sim.Sim, min, max time.Duration) time.Duration {
	if span := max - min; span > 0 {
		return min + time.Duration(s.Rand().Int63n(int64(span)))
	}
	return min
}

// audit is the one obligation rule: every acknowledgement journal js[i]
// holds must be found on es[i], the recovered engine of the log domain that
// made it, whether it was made before the fault or after (atFault is how many
// were journaled at injection). The clients are dead or done by now, so the
// journals are complete.
func (res *TrialResult) audit(p *sim.Proc, js []*workload.Journal, es []*engine.Engine, atFault int) error {
	res.Acked = journaled(js)
	res.AckedAfterFault = res.Acked - atFault
	for i, e := range es {
		vr, err := js[i].Verify(p, e)
		if err != nil {
			return fmt.Errorf("audit domain %d: %w", i, err)
		}
		res.Missing += vr.Missing
		res.Mismatched += vr.Mismatched
	}
	return nil
}

// journaled counts the acknowledgements js hold.
func journaled(js []*workload.Journal) int {
	n := 0
	for _, j := range js {
		n += j.Len()
	}
	return n
}

// runToAudit drives a trial's simulation until audited fires — the trial's
// last act — and no further, so its capture ends with the run rather than
// with idle daemons. A trial that has not fired it within ten virtual
// minutes did not complete.
func runToAudit(s *sim.Sim, audited *sim.Event) error {
	late := false
	s.After(10*time.Minute, func() { late = true; audited.Fire() })
	err := s.RunUntilEvent(audited)
	if err == nil && late {
		err = errors.New("trial did not complete")
	}
	return err
}

// finish is the one trial epilogue: the online monitor's verdict, the
// forensic capture (nil unless the deployment ran traced) and the trial's
// error — its own first, then the run's (runToAudit).
func (res *TrialResult) finish(s *sim.Sim, runErr error, o *obs.Obs, mon *obs.Monitor, fl *obs.FlightRecorder) {
	if res.Err == nil {
		res.Err = runErr
	}
	mr := mon.Report() // the zero report when no monitor is armed
	res.MonitorViolations, res.SplitBrain = mr.Total, mr.ByKind[obs.InvSingleWriter.String()]
	if !o.Tracer().Enabled() {
		return
	}
	dump := o.Tracer().Dump()
	snap := o.Registry().Snapshot()
	res.Artifacts = &Artifacts{Seed: res.Seed, Trace: &dump, Metrics: &snap}
	if mon != nil {
		res.Artifacts.Monitor = &mr
	}
	if fl != nil {
		// A trial that never hit a freeze trigger still yields a usable
		// black box: seal it at trial end.
		fl.Freeze(s.Now().Duration(), "trial-end")
		res.Artifacts.Flight = fl.Record()
	}
}

// Artifacts is one trial's forensic capture, written out by rapilog-fault's
// -trace-out / -metrics-out / -flight-out flags and consumed by
// rapilog-trace.
type Artifacts struct {
	Trial   int
	Seed    int64
	Trace   *obs.TraceDump
	Metrics *obs.Snapshot
	Flight  *obs.FlightRecord
	Monitor *obs.MonitorReport
}
