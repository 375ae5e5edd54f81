package faultinject

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the campaign engine: everything the campaign kinds share. A
// campaign is validate → runSeeded → fold; a trial is build → load → inject
// → recover → audit and ends in captureArtifacts + settle. A new fault is a
// case in a trial's operator process, not a new runner.

// validateCampaign is the validation step both campaign kinds share, run
// after defaults: applyDefaults only replaces zero values, so an explicitly
// negative size or window reaches here.
func validateCampaign(trials, clients int, injectMin, injectMax time.Duration) error {
	if trials < 1 {
		return fmt.Errorf("faultinject: Trials %d: a campaign needs at least one trial", trials)
	}
	if clients < 1 {
		return fmt.Errorf("faultinject: Clients %d: a trial needs at least one client", clients)
	}
	if injectMin < 0 {
		return fmt.Errorf("faultinject: negative InjectAfterMin %v", injectMin)
	}
	if injectMax < injectMin {
		return fmt.Errorf("faultinject: InjectAfterMax %v < InjectAfterMin %v", injectMax, injectMin)
	}
	return nil
}

// runSeeded is the worker pool: it runs trials with seeds base + i·7919, up
// to parallel at a time (0 means GOMAXPROCS), and returns the results in
// seed order. Every trial is a sealed simulation whose schedule depends only
// on its seed, so the pool width changes wall-clock time and nothing else.
func runSeeded[T any](trials, parallel int, base int64, run func(seed int64) T) []T {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > trials {
		parallel = trials
	}
	results := make([]T, trials)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = run(base + int64(i)*7919)
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

// captureArtifacts takes a finished trial's forensic capture and the online
// monitor's verdict. The capture is nil unless the deployment ran traced.
func captureArtifacts(seed int64, now time.Duration, o *obs.Obs, mon *obs.Monitor, fl *obs.FlightRecorder) (*Artifacts, int) {
	violations := 0
	if mon != nil {
		violations = mon.Total()
	}
	if !o.Tracer().Enabled() {
		return nil, violations
	}
	dump := o.Tracer().Dump()
	snap := o.Registry().Snapshot()
	art := &Artifacts{Seed: seed, Trace: &dump, Metrics: &snap}
	if mon != nil {
		mr := mon.Report()
		art.Monitor = &mr
	}
	if fl != nil {
		// A trial that never hit a freeze trigger still yields a usable
		// black box: seal it at trial end.
		fl.Freeze(now, "trial-end")
		art.Flight = fl.Record()
	}
	return art, violations
}

// settle picks a finished trial's error: its own first, then the
// simulation's, then "the audit never ran".
func settle(err, runErr error, audited *sim.Event) error {
	switch {
	case err != nil:
		return err
	case runErr != nil:
		return runErr
	case !audited.Fired():
		return errors.New("trial did not complete")
	}
	return nil
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

// Retention keeps one forensic capture out of many — the first bad one
// offered or, while everything offered is clean, the last — so a long
// campaign holds one capture in memory, not one per trial.
type Retention struct {
	Artifacts *Artifacts
	pinned    bool
}

// Offer applies the retention rule to one more capture (nil is ignored).
func (r *Retention) Offer(a *Artifacts, bad bool) {
	if a != nil && !r.pinned {
		r.Artifacts, r.pinned = a, bad
	}
}

// verdict is the part of a trial's outcome that every campaign kind folds
// the same way.
type verdict struct {
	acked, missing, mismatched int
	monitorViolations          int
	ok                         bool // the trial kind's own Ok()
	artifacts                  *Artifacts
	err                        error
}

// totals is the aggregate both summaries embed.
type totals struct {
	TotalAcked int
	TotalLost  int
	Violations int // trials with any loss or corruption
	Errors     int
	firstErr   error
	// MonitorViolations totals the online monitor's findings across trials.
	MonitorViolations int
	// Retention holds the campaign's forensic capture: the first violating,
	// erroring or monitor-flagged trial's or, when every trial is clean, the
	// last trial's.
	Retention
}

// fold adds trial i's verdict. Loss/corruption is counted independently of
// the error flag: a trial can both error out and lose data, and hiding the
// loss under the error would understate Violations.
func (t *totals) fold(i int, v verdict) {
	if v.artifacts != nil {
		v.artifacts.Trial = i
		t.Offer(v.artifacts, !v.ok || v.monitorViolations > 0)
	}
	t.MonitorViolations += v.monitorViolations
	t.TotalAcked += v.acked
	t.TotalLost += v.missing
	if v.missing > 0 || v.mismatched > 0 {
		t.Violations++
	}
	if v.err != nil {
		t.Errors++
		if t.firstErr == nil {
			t.firstErr = v.err
		}
	}
}

// FirstErr returns the first erroring trial's error in seed order, nil when
// Errors is zero.
func (t totals) FirstErr() error { return t.firstErr }

// Bad reports whether the campaign failed: an acked commit was lost or
// corrupted, a trial errored, or the online monitor flagged an invariant.
func (t totals) Bad() bool {
	return t.Violations > 0 || t.Errors > 0 || t.MonitorViolations > 0
}
