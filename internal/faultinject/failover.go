package faultinject

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// clusterTrial is the trial body for a leader fault: a cluster of
// Rig.Replicas + 1 machines, redirect-aware sessions outside every crash
// domain riding through the takeover, and every journaled ack — of either
// generation — audited against whoever leads at the end.
func clusterTrial(cfg CampaignConfig, res *TrialResult) {
	c, err := rig.NewCluster(rig.ClusterConfig{Nodes: cfg.Rig.Replicas + 1, Rig: cfg.Rig})
	if err != nil {
		res.Err = err
		return
	}
	defer c.Close()
	s := c.S
	dir := workload.NewDirectory()
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		dir.Update(gen, name, e, dom)
	}
	j := workload.NewJournal()
	w := cfg.NewWorkload()
	exLeader := c.LeaderName()

	audited := s.NewEvent("failover.audited")
	operated := s.NewEvent("failover.operated")
	var injectAt time.Duration
	atFault := 0

	// Life 1: boot the initial leader, load, and publish it to the directory.
	s.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			res.Err = fmt.Errorf("boot: %w", err)
			return
		}
		if err := w.Load(p, e); err != nil {
			res.Err = fmt.Errorf("load: %w", err)
			return
		}
		dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})

	s.Spawn(nil, "sessions", func(p *sim.Proc) {
		defer audited.Fire()
		workload.RunSessions(p, dir, w, workload.SessionConfig{
			Clients:  cfg.Clients,
			Duration: sessionFor,
			Journal:  j,
			Reg:      c.Obs.Registry(),
			Trace:    c.Obs.Tracer(),
		})
		// Audit once the sessions and the operator are both done.
		operated.Wait(p)
		ld := dir.Leader()
		if ld.Eng == nil || ld.Dom == nil || ld.Dom.Dead() {
			res.Err = fmt.Errorf("no live leader at audit time (gen %d)", ld.Gen)
			return
		}
		vdone := s.NewEvent("failover.verify")
		s.Spawn(ld.Dom, "audit", func(vp *sim.Proc) {
			defer vdone.Fire()
			if err := res.audit(vp, []*workload.Journal{j}, []*engine.Engine{ld.Eng}, atFault); err != nil {
				res.Err = err
			}
		})
		vdone.Wait(p)
	})

	// Operator: inject at a sampled instant, wait for the takeover, rejoin
	// the deposed node.
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		defer operated.Fire()
		p.Sleep(injectDelay(s, cfg.InjectAfterMin, cfg.InjectAfterMax))
		atFault = j.Len()
		injectAt = p.Now().Duration()
		switch cfg.Fault {
		case LeaderPowerCut:
			c.CutLeaderPower()
		case LeaderIsolation:
			c.IsolateLeader()
		case CoordAndLeader:
			// Nobody is watching when the plug is pulled: detection starts
			// only once the coordinator itself comes back.
			c.Coord.Crash()
			c.CutLeaderPower()
			p.Sleep(coordOutage)
			c.Coord.Restart()
		}
		deadline := p.Now().Add(2 * time.Minute)
		for c.Coord.Failovers() == 0 && p.Now() < deadline {
			p.Sleep(20 * time.Millisecond)
		}
		if c.Coord.Failovers() == 0 {
			if err := c.Coord.LastErr(); err != nil {
				res.Err = fmt.Errorf("takeover never completed: %w", err)
			} else {
				res.Err = fmt.Errorf("takeover never completed")
			}
			return
		}
		if cfg.Fault == LeaderIsolation {
			// Heal only after the fence is up: the deposed shipper's
			// retransmits must land on fenced stores.
			p.Sleep(100 * time.Millisecond)
			c.HealNode(exLeader)
			// Let the deposed shipper retransmit its stale epoch into the
			// fenced cluster before demoting it — the rejected stream is the
			// split-brain near-miss the audit wants on record.
			p.Sleep(200 * time.Millisecond)
		}
		if err := c.RejoinAsStandby(p, exLeader); err != nil && res.Err == nil {
			res.Err = fmt.Errorf("rejoin: %w", err)
		}
	})

	runErr := runToAudit(s, audited)

	res.Failovers = c.Coord.Failovers()
	if first, ok := dir.FirstSuccess(2); ok && first > injectAt {
		res.Unavailable = first - injectAt
		c.Obs.Registry().Histogram("ha.unavailability").Observe(res.Unavailable)
	}
	res.Redirects = c.Obs.Registry().Counter("ha.redirects").Value()
	res.FenceRejections = c.Obs.Registry().Counter("ha.fence_rejections").Value()
	res.Replay = c.LastReplay
	res.finish(s, runErr, c.Obs, c.Monitor, c.Flight)
}
