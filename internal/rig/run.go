package rig

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Result is a measured run: the machine-wide merge, one section per log
// domain in domain order, and the engines the run booted, whose statistics
// stay readable after the rig is closed.
type Result struct {
	// Total sums the domains' counts and merges their latency distributions;
	// its Duration is the longest domain's interval, since the domains ran
	// concurrently.
	Total   workload.RunResult
	Domains []workload.RunResult
	Engines []*engine.Engine
}

// BootAll opens every log domain's engine, in domain order.
func (r *Rig) BootAll(p *sim.Proc) ([]*engine.Engine, error) {
	engines := make([]*engine.Engine, len(r.Domains))
	for i, d := range r.Domains {
		e, err := d.Boot(p)
		if err != nil {
			return nil, fmt.Errorf("rig: log domain %d boot: %w", i, err)
		}
		engines[i] = e
	}
	return engines, nil
}

// Run is the one measured run. From a driver in the machine's root domain it
// boots every log domain in order, gives each its own copy of w and loads it,
// then runs one closed-loop client pool per domain (workload.RunClients;
// rc.Clients is per domain), all concurrently, and drives the simulation
// until every pool's interval has ended. A domain's clients live in its guest
// and die with it; its pool's runner lives in the root domain, so a crash
// cuts short only that domain's measurement.
//
// The paper's machine (one log domain) runs w itself. A fleet splits it
// (workload.Split). A workload that cannot be split, or one journal for
// several domains — an ack is audited against the domain that made it — is
// refused before anything boots.
func (r *Rig) Run(w workload.Workload, rc workload.RunnerConfig) (Result, error) {
	n := len(r.Domains)
	if rc.Journal != nil && n > 1 {
		return Result{}, fmt.Errorf("rig: one journal cannot audit %d log domains", n)
	}
	ws := []workload.Workload{w}
	if r.Cfg.Shards > 0 {
		var err error
		if ws, err = workload.Split(w, n); err != nil {
			return Result{}, err
		}
	}
	res := Result{Domains: make([]workload.RunResult, n)}
	var runErr error
	done := r.S.NewEvent("run.done")
	r.S.Spawn(nil, "run", func(p *sim.Proc) {
		defer done.Fire()
		if res.Engines, runErr = r.BootAll(p); runErr != nil {
			return
		}
		for i, e := range res.Engines {
			if runErr = ws[i].Load(p, e); runErr != nil {
				runErr = fmt.Errorf("rig: log domain %d load: %w", i, runErr)
				return
			}
		}
		pools := r.S.NewEvent("run.pools")
		running := n
		for i, d := range r.Domains {
			i, d := i, d
			r.S.Spawn(nil, d.at.prefix+"runner", func(rp *sim.Proc) {
				res.Domains[i] = workload.RunClients(rp, d.Plat.Domain(), res.Engines[i], ws[i], rc)
				if running--; running == 0 {
					pools.Fire()
				}
			})
		}
		// The runners cannot die (no root-domain process does), and RunClients
		// returns by its deadline even when its domain was killed.
		pools.Wait(p)
	})
	if err := r.S.RunUntilEvent(done); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	res.Total = workload.RunResult{TxnLatency: metrics.NewHistogram("run.txn")}
	for _, d := range res.Domains {
		res.Total.Committed += d.Committed
		res.Total.Aborted += d.Aborted
		res.Total.Duration = max(res.Total.Duration, d.Duration)
		res.Total.TxnLatency.Merge(d.TxnLatency)
	}
	return res, nil
}
