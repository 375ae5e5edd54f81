package faultinject

import (
	"fmt"
	"time"

	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runShardedTrial is RunTrial's sharded power-cut path: N independent log
// domains on one machine, each with its own workload copy, journal and
// client pool. The plug is pulled on the whole machine — every shard's
// emergency dump races the same hold-up window — recovery runs per shard in
// parallel, and each shard's acked-before-injection prefix is audited
// against the engine that acked it.
func runShardedTrial(cfg CampaignConfig, seed int64) TrialResult {
	res := TrialResult{Seed: seed}
	rigCfg := cfg.Rig
	rigCfg.Seed = seed
	rigCfg.NoDaemons = false
	sh, err := rig.NewSharded(rigCfg, cfg.Shards)
	if err != nil {
		res.Err = err
		return res
	}
	defer sh.Close()
	s := sh.S
	n := cfg.Shards
	journals := make([]*workload.Journal, n)
	wls := make([]workload.Workload, n)
	for i := range journals {
		journals[i] = workload.NewJournal()
		wls[i] = cfg.NewWorkload()
	}
	loaded := s.NewEvent("loaded")
	audited := s.NewEvent("audited")

	// Life 1: boot every shard, load, serve until the plug is pulled.
	s.Spawn(nil, "boot", func(p *sim.Proc) {
		engines, err := sh.BootAll(p)
		if err != nil {
			res.Err = fmt.Errorf("boot: %w", err)
			loaded.Fire()
			return
		}
		for i, e := range engines {
			if err := wls[i].Load(p, e); err != nil {
				res.Err = fmt.Errorf("shard %d load: %w", i, err)
				loaded.Fire()
				return
			}
		}
		loaded.Fire()
		for i, e := range engines {
			i, e := i, e
			for c := 0; c < cfg.Clients; c++ {
				client := c
				// Clients live in their shard's guest domain and die with it.
				s.Spawn(sh.Shards[i].Plat.Domain(), fmt.Sprintf("shard%d.client%d", i, client), func(cp *sim.Proc) {
					for {
						var err error
						if st, ok := wls[i].(*workload.Stress); ok {
							err = st.DoAs(cp, e, journals[i], client)
						} else {
							err = wls[i].Do(cp, e, journals[i])
						}
						if err != nil {
							cp.Sleep(time.Millisecond) // deadlock victim: retry
						}
					}
				})
			}
		}
	})

	ackedPer := make([]int, n)
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		loaded.Wait(p)
		if res.Err != nil {
			audited.Fire()
			return
		}
		span := cfg.InjectAfterMax - cfg.InjectAfterMin
		delay := cfg.InjectAfterMin
		if span > 0 {
			delay += time.Duration(s.Rand().Int63n(int64(span)))
		}
		p.Sleep(delay)
		// Obligations are per shard: a commit acked by shard i must be found
		// on shard i after recovery, not anywhere else.
		for i, j := range journals {
			ackedPer[i] = j.Len()
			res.Acked += ackedPer[i]
		}
		sh.CutPower()
		p.Sleep(3 * time.Second)
		rep, err := sh.RecoverAfterPower(p)
		if err != nil {
			res.Err = fmt.Errorf("sharded power recovery: %w", err)
			audited.Fire()
			return
		}
		res.Torn = rep.Torn()
		res.HadDump = rep.HadDump()
		res.DumpFailures = rep.DumpFailures()
		for _, sr := range rep.Shards {
			res.DumpRetries += sr.DumpRetries
		}
		s.Spawn(nil, "audit", func(p *sim.Proc) {
			defer audited.Fire()
			engines, err := sh.BootAll(p)
			if err != nil {
				res.Err = fmt.Errorf("recovery boot: %w", err)
				return
			}
			for i, e := range engines {
				vr, err := journals[i].VerifyFirst(p, e, ackedPer[i])
				if err != nil {
					res.Err = fmt.Errorf("shard %d audit: %w", i, err)
					return
				}
				res.Missing += vr.Missing
				res.Mismatched += vr.Mismatched
			}
		})
	})

	runErr := s.RunFor(10 * time.Minute)
	if runErr != nil {
		if res.Err == nil {
			res.Err = runErr
		}
		return res
	}
	if !audited.Fired() && res.Err == nil {
		res.Err = fmt.Errorf("trial did not complete")
	}
	return res
}
