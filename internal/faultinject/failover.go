package faultinject

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FailoverFault is the kind of failure a failover trial injects into a
// running HA cluster.
type FailoverFault string

// Failover fault kinds.
const (
	// LeaderPowerCut pulls the leader machine's plug: heartbeat agent,
	// shipper and guest all die at once.
	LeaderPowerCut FailoverFault = "leader-power-cut"
	// LeaderIsolation partitions a healthy leader from the fabric: it keeps
	// running — and keeps trying to commit — but its acks and heartbeats go
	// nowhere. The classic split-brain setup.
	LeaderIsolation FailoverFault = "leader-isolation"
	// CoordAndLeader composes a coordinator crash with a leader power cut:
	// nobody is watching when the leader dies, and the takeover must happen
	// after the coordinator itself restarts.
	CoordAndLeader FailoverFault = "coordinator+leader"
)

// FailoverConfig parameterises a failover campaign: repeated leader-loss
// trials against a full HA cluster, each auditing zero acked-quorum loss
// and zero split-brain.
type FailoverConfig struct {
	// Cluster is the per-trial deployment template (the trial overrides the
	// seed). NewCluster forces a remote ack policy and tracing.
	Cluster rig.ClusterConfig
	Fault   FailoverFault
	Trials  int // default 20
	Clients int // default 4
	// ValueSize is the stress payload per op; default 1000. It scales the
	// promotion replay (and so the takeover's redo time).
	ValueSize int
	// InjectAfterMin/Max bound the virtual time between session start and
	// leader loss; sampled per trial. Defaults 500ms..1.5s.
	InjectAfterMin time.Duration
	InjectAfterMax time.Duration
	// SessionFor is how long the session pool runs; it must outlast the
	// takeover (which is dominated by WAL redo on the promoted node).
	// Default 60s.
	SessionFor time.Duration
	// CoordOutage is how long the coordinator stays down after the leader
	// dies in the composed fault; default 500ms.
	CoordOutage time.Duration
	// Parallel is how many trials run concurrently; same determinism
	// contract as CampaignConfig.Parallel.
	Parallel int
}

func (c *FailoverConfig) applyDefaults() {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1000
	}
	if c.InjectAfterMin == 0 {
		c.InjectAfterMin = 500 * time.Millisecond
	}
	if c.InjectAfterMax == 0 {
		c.InjectAfterMax = 1500 * time.Millisecond
	}
	if c.SessionFor == 0 {
		c.SessionFor = 60 * time.Second
	}
	if c.CoordOutage == 0 {
		c.CoordOutage = 500 * time.Millisecond
	}
}

func (c *FailoverConfig) validate() error {
	switch c.Fault {
	case LeaderPowerCut, LeaderIsolation, CoordAndLeader:
	default:
		return fmt.Errorf("faultinject: unknown failover fault %q", c.Fault)
	}
	if err := validateCampaign(c.Trials, c.Clients, c.InjectAfterMin, c.InjectAfterMax); err != nil {
		return err
	}
	if c.SessionFor <= c.InjectAfterMax {
		return fmt.Errorf("faultinject: SessionFor %v inside the inject window", c.SessionFor)
	}
	return nil
}

// FailoverTrial is one leader-loss trial's outcome.
type FailoverTrial struct {
	Seed  int64
	Acked int // ops acked before injection
	// Missing/Mismatched audit every acked op — before or after the
	// takeover — against the final leader's engine.
	Missing    int
	Mismatched int
	// Failovers is how many takeovers the coordinator completed; exactly
	// one is clean.
	Failovers int
	// Unavailable is the client-visible outage: first committed op of
	// generation 2 minus the injection instant. Zero means no session ever
	// committed against the promoted leader.
	Unavailable time.Duration
	// SplitBrain counts single_writer_epoch monitor violations: >0 means
	// two shippers were acked inside one epoch.
	SplitBrain int
	// Redirects and FenceRejections are the trial's ha.* counter readings.
	Redirects         int64
	FenceRejections   int64
	ReplayBytes       int64
	ReplayEntries     int
	MonitorViolations int
	Artifacts         *Artifacts
	Err               error
}

// Ok reports whether the trial was a clean takeover: no loss, no
// corruption, no split-brain, exactly one failover, and the cluster came
// back for the clients.
func (t FailoverTrial) Ok() bool {
	return t.Err == nil && t.Missing == 0 && t.Mismatched == 0 &&
		t.SplitBrain == 0 && t.Failovers == 1 && t.Unavailable > 0
}

// FailoverSummary aggregates a failover campaign.
type FailoverSummary struct {
	Config FailoverConfig
	Trials []FailoverTrial
	totals
	SplitBrains int // trials where the single-writer invariant fired
	Incomplete  int // trials with != 1 failover or no post-takeover commit
}

// add folds the next trial, in seed order, into the aggregate.
func (s *FailoverSummary) add(res FailoverTrial) {
	s.fold(len(s.Trials), verdict{
		acked: res.Acked, missing: res.Missing, mismatched: res.Mismatched,
		monitorViolations: res.MonitorViolations, ok: res.Ok(),
		artifacts: res.Artifacts, err: res.Err,
	})
	res.Artifacts = nil
	s.Trials = append(s.Trials, res)
	if res.SplitBrain > 0 {
		s.SplitBrains++
	}
	if res.Failovers != 1 || res.Unavailable == 0 {
		s.Incomplete++
	}
}

// Bad reports whether the campaign failed: the shared conditions, a
// split-brain, or a takeover that never completed.
func (s FailoverSummary) Bad() bool {
	return s.totals.Bad() || s.SplitBrains > 0 || s.Incomplete > 0
}

// UnavailPercentile returns the q-quantile (0..1) of the per-trial
// unavailability windows, over trials that completed a takeover.
func (s FailoverSummary) UnavailPercentile(q float64) time.Duration {
	var ds []time.Duration
	for _, t := range s.Trials {
		if t.Unavailable > 0 {
			ds = append(ds, t.Unavailable)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q * float64(len(ds)-1))
	return ds[idx]
}

func (s FailoverSummary) String() string {
	return fmt.Sprintf("failover/%s: %d trials, %d acked, %d lost, %d violating, %d split-brain, %d incomplete, %d errors, unavailability p50 %v p99 %v",
		s.Config.Fault, len(s.Trials), s.TotalAcked, s.TotalLost, s.Violations,
		s.SplitBrains, s.Incomplete, s.Errors,
		s.UnavailPercentile(0.50).Round(time.Millisecond),
		s.UnavailPercentile(0.99).Round(time.Millisecond))
}

// RunFailoverCampaign executes cfg.Trials independent failover trials on the
// campaign engine's worker pool; the same determinism contract as
// RunCampaign (each trial is one sealed simulation, results fold in seed
// order).
func RunFailoverCampaign(cfg FailoverConfig) FailoverSummary {
	cfg.applyDefaults()
	sum := FailoverSummary{Config: cfg}
	if err := cfg.validate(); err != nil {
		// Not a trial: nothing ran, so nothing is "incomplete".
		sum.Trials = append(sum.Trials, FailoverTrial{Err: err})
		sum.fold(0, verdict{err: err})
		return sum
	}
	for _, res := range runSeeded(cfg.Trials, cfg.Parallel, cfg.Cluster.Rig.Seed,
		func(seed int64) FailoverTrial { return RunFailoverTrial(cfg, seed) }) {
		sum.add(res)
	}
	return sum
}

// RunFailoverTrial executes one load→leader-loss→takeover→audit cycle in a
// fresh simulation with the given seed.
func RunFailoverTrial(cfg FailoverConfig, seed int64) FailoverTrial {
	cfg.applyDefaults()
	res := FailoverTrial{Seed: seed}
	if err := cfg.validate(); err != nil {
		res.Err = err
		return res
	}

	ccfg := cfg.Cluster
	ccfg.Rig.Seed = seed
	c, err := rig.NewCluster(ccfg)
	if err != nil {
		res.Err = err
		return res
	}
	defer c.Close()
	s := c.S
	dir := workload.NewDirectory()
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		dir.Update(gen, name, e, dom)
	}
	j := workload.NewJournal()
	w := &workload.Stress{ValueSize: cfg.ValueSize}
	exLeader := c.LeaderName()

	audited := s.NewEvent("failover.audited")
	var injectAt time.Duration

	// Life 1: boot the initial leader and publish it to the directory.
	s.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			res.Err = fmt.Errorf("boot: %w", err)
			return
		}
		dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})

	// Sessions: redirect-aware clients that ride through the takeover, then
	// the audit — every journaled ack (either generation) must be present
	// and correct on whoever leads at the end.
	s.Spawn(nil, "sessions", func(p *sim.Proc) {
		defer audited.Fire()
		workload.RunSessions(p, dir, w, workload.SessionConfig{
			Clients:  cfg.Clients,
			Duration: cfg.SessionFor,
			Journal:  j,
			Reg:      c.Obs.Registry(),
			Trace:    c.Obs.Tracer(),
		})
		ld := dir.Leader()
		if ld.Eng == nil || ld.Dom == nil || ld.Dom.Dead() {
			res.Err = fmt.Errorf("no live leader at audit time (gen %d)", ld.Gen)
			return
		}
		vdone := s.NewEvent("failover.verify")
		s.Spawn(ld.Dom, "audit", func(vp *sim.Proc) {
			defer vdone.Fire()
			vr, err := j.Verify(vp, ld.Eng)
			if err != nil {
				res.Err = fmt.Errorf("audit: %w", err)
				return
			}
			res.Missing = vr.Missing
			res.Mismatched = vr.Mismatched
		})
		vdone.Wait(p)
	})

	// Operator: inject at a sampled instant, wait for the takeover, rejoin
	// the deposed node.
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(injectDelay(s, cfg.InjectAfterMin, cfg.InjectAfterMax))
		res.Acked = j.Len()
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
			p.Sleep(cfg.CoordOutage)
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

	runErr := s.RunFor(10 * time.Minute)

	res.Failovers = c.Coord.Failovers()
	if first, ok := dir.FirstSuccess(2); ok && first > injectAt {
		res.Unavailable = first - injectAt
		c.Obs.Registry().Histogram("ha.unavailability").Observe(res.Unavailable)
	}
	res.Redirects = c.Obs.Registry().Counter("ha.redirects").Value()
	res.FenceRejections = c.Obs.Registry().Counter("ha.fence_rejections").Value()
	res.ReplayBytes = c.LastReplay.Bytes
	res.ReplayEntries = c.LastReplay.Entries
	if c.Monitor != nil {
		res.SplitBrain = c.Monitor.Report().ByKind["single_writer_epoch"]
	}
	res.Artifacts, res.MonitorViolations = captureArtifacts(seed, s.Now().Duration(), c.Obs, c.Monitor, c.Flight)
	res.Err = settle(res.Err, runErr, audited)
	return res
}
