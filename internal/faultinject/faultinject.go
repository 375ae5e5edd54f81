// Package faultinject runs the paper's destructive experiments: repeated
// guest crashes, plug-pulls and leader losses under load, each followed by
// recovery and a durability audit against the client-side journal. One
// campaign = many independent trials, each in its own deterministic
// simulation; the fault decides the topology a trial is built on.
package faultinject

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/disk"
	"repro/internal/replica"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fault is the kind of failure a trial injects.
type Fault string

// Fault kinds.
const (
	// GuestCrash kills the OS/DBMS stack (hypervisor survives in
	// virtualised modes).
	GuestCrash Fault = "guest-crash"
	// PowerCut pulls the plug: the PSU hold-up race decides what survives.
	PowerCut Fault = "power-cut"
	// DiskError opens a window of transient log-device write errors while
	// load continues (or, with PermanentFault, grows a bad-sector range
	// over the whole log partition), then crashes the guest and audits.
	DiskError Fault = "disk-error"
	// LatencyStorm stalls every log-device request for the fault window —
	// nothing fails, everything is late.
	LatencyStorm Fault = "latency-storm"
	// Partition isolates the primary from every standby for
	// PartitionWindow, then heals (a replicated machine only: Rig.Replicas
	// > 0). Composable with PowerCut/GuestCrash via Compose.
	Partition Fault = "partition"
	// ReplicaCrash crashes CrashReplicas standbys for PartitionWindow,
	// then restarts them (a replicated machine only). Composable like
	// Partition.
	ReplicaCrash Fault = "replica-crash"
	// LeaderPowerCut pulls the plug of a cluster's leader machine: its
	// power-fail interrupt sends the agent's notice to the coordinator, and
	// heartbeat agent, shipper and guest all die when the hold-up runs out.
	LeaderPowerCut Fault = "leader-power-cut"
	// LeaderIsolation partitions a healthy leader from the fabric: it keeps
	// running — and keeps trying to commit — but its acks and heartbeats go
	// nowhere. The classic split-brain setup.
	LeaderIsolation Fault = "leader-isolation"
	// CoordAndLeader composes a coordinator crash with a leader power cut:
	// nobody is watching when the leader dies (its power-fail notice is
	// lost), and the takeover must happen after the coordinator itself
	// restarts, on the heartbeat detector.
	CoordAndLeader Fault = "coordinator+leader"
)

// isMediaFault reports whether f injects through the disk.Faulty wrapper
// (and therefore leaves the machine itself running).
func (f Fault) isMediaFault() bool { return f == DiskError || f == LatencyStorm }

// isReplicaFault reports whether f injects into the replication fabric.
func (f Fault) isReplicaFault() bool { return f == Partition || f == ReplicaCrash }

// isLeaderFault reports whether f takes a cluster's leader away: the trial
// then runs on rig.NewCluster with failover-aware sessions (clusterTrial)
// instead of on one machine with guest-resident clients (machineTrial).
func (f Fault) isLeaderFault() bool {
	return f == LeaderPowerCut || f == LeaderIsolation || f == CoordAndLeader
}

// CampaignConfig parameterises a fault-injection campaign.
type CampaignConfig struct {
	// Rig is the machine every trial is built on. With Rig.Shards > 1 each
	// log domain gets its own workload copy, journal and client pool, the
	// fault hits the whole machine, and recovery runs per domain in parallel
	// — PowerCut only, the one fault that is machine-wide by nature. A leader
	// fault builds a cluster of Rig.Replicas + 1 such machines (default 3),
	// resolved by rig.ClusterConfig.Normalize: it forces a remote ack policy
	// and tracing on them.
	Rig     rig.Config
	Fault   Fault
	Trials  int // default 20
	Clients int // default 4
	// InjectAfterMin/Max bound the virtual time between workload start and
	// fault injection; the exact instant is sampled per trial. Defaults
	// 200ms..2s, and 500ms..1.5s for a leader fault.
	InjectAfterMin time.Duration
	InjectAfterMax time.Duration
	// FaultWindow is how long an injected media fault lasts (DiskError,
	// LatencyStorm); default 300ms.
	FaultWindow time.Duration
	// MediaErrProb is the per-request write-error probability inside a
	// DiskError window; default 0.7.
	MediaErrProb float64
	// PermanentFault turns DiskError into a grown bad-sector range over
	// the whole log partition: drain and WAL writes fail forever, forcing
	// a RapiLog logger into degraded pass-through.
	PermanentFault bool
	// Compose, for replica faults, fires a second fault (PowerCut or
	// GuestCrash) at the midpoint of the partition/outage window — the
	// double-fault scenario the ack policies differ on.
	Compose Fault
	// PartitionWindow is how long a Partition or ReplicaCrash outage
	// lasts; default FaultWindow.
	PartitionWindow time.Duration
	// CrashReplicas is how many standbys a ReplicaCrash takes down;
	// default 1.
	CrashReplicas int
	// Parallel is how many trials run concurrently. Each trial is an
	// independent deterministic simulation keyed only by its seed, so
	// concurrency cannot change any trial's schedule; results are folded in
	// seed order, making the Summary — aggregates, trial order, artifact
	// retention — identical to a sequential run. 0 means GOMAXPROCS; 1
	// forces sequential.
	Parallel int
	// BreakDump grows a bad-sector range over the entire dump zone before
	// the workload starts: emergency dumps fail, recovery finds nothing.
	// This is the "local durability domain is gone" half of the A9
	// double-fault; only a remote policy survives it with data buffered.
	BreakDump bool
	// Workload factory; default: a small TPC-C, and 1000-byte stress inserts
	// for a leader fault (the value size scales the promotion replay, and so
	// the log the promoted node recovers from).
	NewWorkload func() workload.Workload
}

// sessionFor is how long a leader-fault trial's session pool runs; it must
// outlast injection plus the takeover (up to about a second: failure
// detection, then the promoted node's recovery streaming its log).
const sessionFor = 10 * time.Second

// coordOutage is how long the coordinator stays down after the leader dies
// in the composed CoordAndLeader fault.
const coordOutage = 500 * time.Millisecond

func (c *CampaignConfig) applyDefaults() {
	leader := c.Fault.isLeaderFault()
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.InjectAfterMin == 0 {
		c.InjectAfterMin = 200 * time.Millisecond
		if leader {
			c.InjectAfterMin = 500 * time.Millisecond
		}
	}
	if c.InjectAfterMax == 0 {
		c.InjectAfterMax = 2 * time.Second
		if leader {
			c.InjectAfterMax = 1500 * time.Millisecond
		}
	}
	if c.FaultWindow == 0 {
		c.FaultWindow = 300 * time.Millisecond
	}
	if c.MediaErrProb == 0 {
		c.MediaErrProb = 0.7
	}
	if c.PartitionWindow == 0 {
		c.PartitionWindow = c.FaultWindow
	}
	if c.CrashReplicas == 0 {
		c.CrashReplicas = 1
	}
	if c.NewWorkload == nil {
		c.NewWorkload = func() workload.Workload {
			if leader {
				return &workload.Stress{ValueSize: 1000}
			}
			return &workload.TPCC{Warehouses: 1, Districts: 4, Customers: 20, Items: 200}
		}
	}
}

// validate rejects configurations that could never run a sane trial. It runs
// after applyDefaults, which only replaces zero values: an explicitly
// negative size or window reaches here. It resolves Rig in place as the
// trial's rig.New or rig.NewCluster will: the Summary reports what ran.
func (c *CampaignConfig) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("faultinject: Trials %d: a campaign needs at least one trial", c.Trials)
	}
	if c.Clients < 1 {
		return fmt.Errorf("faultinject: Clients %d: a trial needs at least one client", c.Clients)
	}
	if c.InjectAfterMin < 0 {
		return fmt.Errorf("faultinject: negative InjectAfterMin %v", c.InjectAfterMin)
	}
	if c.InjectAfterMax < c.InjectAfterMin {
		return fmt.Errorf("faultinject: InjectAfterMax %v < InjectAfterMin %v", c.InjectAfterMax, c.InjectAfterMin)
	}
	// A negative window would silently collapse to a zero-length Sleep and a
	// fault that "passes" without ever firing.
	if c.FaultWindow <= 0 {
		return fmt.Errorf("faultinject: FaultWindow %v is not a positive window", c.FaultWindow)
	}
	if c.PartitionWindow <= 0 {
		return fmt.Errorf("faultinject: PartitionWindow %v is not a positive window", c.PartitionWindow)
	}
	if c.MediaErrProb < 0 || c.MediaErrProb > 1 {
		return fmt.Errorf("faultinject: MediaErrProb %v outside [0, 1]", c.MediaErrProb)
	}
	if c.CrashReplicas < 1 {
		return fmt.Errorf("faultinject: CrashReplicas %d: a replica crash takes down at least one standby", c.CrashReplicas)
	}
	if err := c.Rig.Normalize(); err != nil {
		return err
	}
	// Fault × topology: what each fault needs of the deployment it hits.
	switch {
	case c.Fault == GuestCrash, c.Fault == PowerCut, c.Fault.isMediaFault():
	case c.Fault.isReplicaFault():
		if c.Rig.Replicas == 0 {
			return fmt.Errorf("faultinject: fault %q needs standbys (Rig.Replicas, or a remote Rig.AckPolicy)", c.Fault)
		}
		if c.Fault == ReplicaCrash && c.CrashReplicas > c.Rig.Replicas {
			return fmt.Errorf("faultinject: CrashReplicas %d exceeds the %d standbys (Rig.Replicas)", c.CrashReplicas, c.Rig.Replicas)
		}
	case c.Fault.isLeaderFault():
		// The trial's cluster: Rig.Replicas + 1 nodes, or its default count.
		cc := rig.ClusterConfig{Rig: c.Rig}
		if c.Rig.Replicas > 0 {
			cc.Nodes = c.Rig.Replicas + 1
		}
		err := cc.Normalize()
		c.Rig = cc.Rig
		if err != nil {
			return err
		}
		if c.InjectAfterMax >= sessionFor {
			return fmt.Errorf("faultinject: InjectAfterMax %v outlasts the %v session pool", c.InjectAfterMax, sessionFor)
		}
	default:
		return fmt.Errorf("faultinject: unknown fault %q", c.Fault)
	}
	switch c.Compose {
	case "":
	case PowerCut, GuestCrash:
		if !c.Fault.isReplicaFault() {
			return fmt.Errorf("faultinject: Compose only applies to replica faults, not %q", c.Fault)
		}
	default:
		return fmt.Errorf("faultinject: Compose must be %q or %q, got %q", PowerCut, GuestCrash, c.Compose)
	}
	if c.Rig.Shards > 1 && c.Fault != PowerCut {
		return fmt.Errorf("faultinject: sharded campaigns support %q only, not %q", PowerCut, c.Fault)
	}
	return nil
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	Seed  int64
	Fault Fault // what was injected; empty when the config was rejected
	// Acked is every ack a client saw, each an obligation (TrialResult.audit);
	// AckedAfterFault counts those made after the fault was injected.
	Acked           int
	AckedAfterFault int
	Missing         int // acked transactions absent after recovery
	Mismatched      int
	// Torn: the RapiLog dump ended mid-entry. Unsafe sizing tears dumps, and
	// so, on a slow disk, can the safe bound (ROADMAP item 7).
	Torn    bool
	HadDump bool // a valid dump header was found at recovery
	// Media-fault trials (RapiLog mode).
	Degraded      bool  // the logger was in pass-through at audit time
	BufferedAfter int64 // bytes still stranded after the settle window
	// Power-cut trials: the dying epoch's dump-path counters.
	DumpRetries  int
	DumpFailures int
	// Replicated-machine trials: the replication stream's peak unacked depth
	// (records shipped but not yet held by every standby).
	ReplLagMax int64
	// Leader-fault trials: the audit runs on the final leader's engine.
	// Failovers is how many takeovers the coordinator completed; exactly one
	// is clean.
	Failovers int
	// Unavailable is the client-visible outage: first committed op of
	// generation 2 minus the injection instant. Zero means no session ever
	// committed against the promoted leader.
	Unavailable time.Duration
	// Redirects and FenceRejections are the trial's ha.* counter readings;
	// Replay is the last promotion's replay (rig.Cluster.LastReplay): the
	// suffix past the winner's mirror cursor, and how far the winner's
	// follower trailed its store when the fence went up.
	Redirects       int64
	FenceRejections int64
	Replay          replica.RecoverReport
	// SplitBrain counts single_writer_epoch monitor violations: >0 means two
	// shippers were acked inside one epoch.
	SplitBrain int
	// MonitorViolations is the online invariant monitor's verdict for the
	// trial (zero unless the rig ran with tracing enabled).
	MonitorViolations int
	// Artifacts holds the trial's forensic capture (trace dump, metrics
	// snapshot, flight record, monitor report) when the rig ran with tracing
	// enabled. Summary.add moves it into Summary.Artifacts and nils it here,
	// so a long campaign retains one capture, not one per trial.
	Artifacts *Artifacts
	Err       error
}

// Incomplete reports a leader-fault trial that did not end in exactly one
// takeover with a session served by the promoted leader.
func (t TrialResult) Incomplete() bool {
	return t.Fault.isLeaderFault() && (t.Failovers != 1 || t.Unavailable == 0)
}

// Ok reports whether the trial had zero durability violations: no loss, no
// corruption, no split-brain and, after a leader fault, a clean takeover.
func (t TrialResult) Ok() bool {
	return t.Err == nil && t.Missing == 0 && t.Mismatched == 0 && t.SplitBrain == 0 && !t.Incomplete()
}

// Summary aggregates a campaign.
type Summary struct {
	Config               CampaignConfig
	Trials               []TrialResult
	TotalAcked           int
	TotalAckedAfterFault int
	TotalLost            int
	Violations           int // trials with any loss or corruption
	Errors               int
	firstErr             error
	// MonitorViolations totals the online monitor's findings across trials.
	MonitorViolations int
	DegradedTrials    int   // trials that ended with the logger in pass-through
	DumpFailures      int   // emergency dumps that never reached the zone
	MaxReplLag        int64 // worst per-trial replication lag peak
	SplitBrains       int   // trials where the single-writer invariant fired
	Incomplete        int   // leader-fault trials with != 1 failover or no post-takeover commit
	// Artifacts is the campaign's forensic capture: the first violating,
	// erroring, incomplete or monitor-flagged trial's or, while every trial
	// is clean, the last trial's — a long campaign holds one capture in
	// memory, not one per trial.
	Artifacts *Artifacts
	pinned    bool // Artifacts is a bad trial's and stays
}

// add folds the next trial, in seed order, into the aggregate. Loss and
// corruption are counted independently of the error flag: a trial can both
// error out and lose data, and hiding the loss under the error would
// understate Violations.
func (s *Summary) add(res TrialResult) {
	if a := res.Artifacts; a != nil && !s.pinned {
		a.Trial = len(s.Trials)
		s.Artifacts, s.pinned = a, !res.Ok() || res.MonitorViolations > 0
	}
	res.Artifacts = nil
	s.Trials = append(s.Trials, res)
	s.TotalAcked += res.Acked
	s.TotalAckedAfterFault += res.AckedAfterFault
	s.TotalLost += res.Missing
	if res.Missing > 0 || res.Mismatched > 0 {
		s.Violations++
	}
	if res.Err != nil {
		s.Errors++
		if s.firstErr == nil {
			s.firstErr = res.Err
		}
	}
	s.MonitorViolations += res.MonitorViolations
	if res.Degraded {
		s.DegradedTrials++
	}
	s.DumpFailures += res.DumpFailures
	s.MaxReplLag = max(s.MaxReplLag, res.ReplLagMax)
	if res.SplitBrain > 0 {
		s.SplitBrains++
	}
	if res.Incomplete() {
		s.Incomplete++
	}
}

// FirstErr returns the first erroring trial's error in seed order, nil when
// Errors is zero.
func (s Summary) FirstErr() error { return s.firstErr }

// Bad reports whether the campaign failed: an acked commit was lost or
// corrupted, a trial errored, the online monitor flagged an invariant
// (split-brain among them), or a takeover never completed.
func (s Summary) Bad() bool {
	return s.Violations > 0 || s.Errors > 0 || s.MonitorViolations > 0 || s.SplitBrains > 0 || s.Incomplete > 0
}

// UnavailPercentile returns the q-quantile (0..1) of the per-trial
// unavailability windows, over trials that completed a takeover.
func (s Summary) UnavailPercentile(q float64) time.Duration {
	var ds []time.Duration
	for _, t := range s.Trials {
		if t.Unavailable > 0 {
			ds = append(ds, t.Unavailable)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[int(q*float64(len(ds)-1))]
}

func (s Summary) String() string {
	rc := s.Config.Rig
	topo := string(rc.Mode)
	extra := ""
	if rc.Shards > 1 {
		topo += fmt.Sprintf("[%d shards]", rc.Shards)
	}
	if rc.Replicas > 0 {
		topo += fmt.Sprintf("[%d standbys]", rc.Replicas)
	}
	if s.Config.Fault.isLeaderFault() {
		topo = fmt.Sprintf("cluster[%d nodes]", rc.Replicas+1)
		extra = fmt.Sprintf(", %d split-brain, %d incomplete, unavailability p50 %v p99 %v", s.SplitBrains, s.Incomplete,
			s.UnavailPercentile(0.50).Round(time.Millisecond), s.UnavailPercentile(0.99).Round(time.Millisecond))
		var replayN, lagN int
		var replayB, lagB int64
		for _, t := range s.Trials {
			replayN, replayB = replayN+t.Replay.Entries, replayB+t.Replay.Bytes
			lagN, lagB = lagN+t.Replay.Lag, lagB+t.Replay.LagBytes
		}
		if n := float64(len(s.Trials)); n > 0 {
			extra += fmt.Sprintf(", per-trial mean promotion replay %.1f records (%.0f B), follower lag at fence %.1f records (%.0f B)",
				float64(replayN)/n, float64(replayB)/n, float64(lagN)/n, float64(lagB)/n)
		}
	}
	if s.DegradedTrials > 0 {
		extra += fmt.Sprintf(", %d degraded", s.DegradedTrials)
	}
	if s.DumpFailures > 0 {
		extra += fmt.Sprintf(", %d dump failures", s.DumpFailures)
	}
	if s.MaxReplLag > 0 {
		extra += fmt.Sprintf(", repl lag max %d", s.MaxReplLag)
	}
	if s.MonitorViolations > 0 {
		extra += fmt.Sprintf(", %d monitor violations", s.MonitorViolations)
	}
	fault := string(s.Config.Fault)
	if s.Config.Compose != "" {
		fault += "+" + string(s.Config.Compose)
	}
	return fmt.Sprintf("%s/%s: %d trials, %d acked commits (%d after the fault), %d lost, %d violating trials, %d errors%s",
		topo, fault, len(s.Trials), s.TotalAcked, s.TotalAckedAfterFault, s.TotalLost, s.Violations, s.Errors, extra)
}

// RunCampaign executes cfg.Trials independent trials on the campaign
// engine's worker pool (runSeeded), up to cfg.Parallel at a time, and folds
// them in seed order: the Summary is identical to a sequential run's. A
// config no trial can run on is an error, and no trial runs.
func RunCampaign(cfg CampaignConfig) (Summary, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return Summary{}, err
	}
	sum := Summary{Config: cfg}
	for _, res := range runSeeded(cfg) {
		sum.add(res)
	}
	return sum, nil
}

// RunTrial executes one load→fault→recover→audit cycle in a fresh
// simulation with the given seed, on the topology the fault calls for: a
// cluster for a leader fault (clusterTrial), one machine for every other
// (machineTrial). The bodies keep different client pools — guest-resident
// clients against sessions outside every crash domain — and share the rest:
// every journaled ack is an obligation (TrialResult.audit), and the trial
// ends with its audit (runToAudit, then finish).
func RunTrial(cfg CampaignConfig, seed int64) TrialResult {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return TrialResult{Seed: seed, Err: err}
	}
	cfg.Rig.Seed = seed
	cfg.Rig.NoDaemons = false
	res := TrialResult{Seed: seed, Fault: cfg.Fault}
	if cfg.Fault.isLeaderFault() {
		clusterTrial(cfg, &res)
	} else {
		machineTrial(cfg, &res)
	}
	return res
}

// machineTrial is the trial body on one machine. Every log domain gets its
// own workload copy, journal and client pool, and its acks are audited
// against the engine that made them; the machine-wide fault (PowerCut) hits
// them all, every other fault acts on the one domain an unsharded machine
// has.
func machineTrial(cfg CampaignConfig, res *TrialResult) {
	if cfg.Fault.isMediaFault() && !cfg.Rig.LogFault.Enabled {
		// The fault layer starts quiet; the operator opens the window.
		cfg.Rig.LogFault = disk.FaultConfig{Enabled: true, Seed: res.Seed * 31}
	}
	if cfg.BreakDump && !cfg.Rig.DumpFault.Enabled {
		cfg.Rig.DumpFault = disk.FaultConfig{Enabled: true, Seed: res.Seed*31 + 7}
	}
	r, err := rig.New(cfg.Rig)
	if err != nil {
		res.Err = err
		return
	}
	defer r.Close()
	s, n := r.S, len(r.Domains)
	journals := make([]*workload.Journal, n)
	wls := make([]workload.Workload, n)
	for i, d := range r.Domains {
		if cfg.BreakDump {
			// Every dump-zone write fails permanently; reads still succeed
			// (returning whatever is there — zeros), so recovery sees "no dump"
			// rather than an I/O error, exactly like a zone that silently
			// rotted.
			d.FaultyDump.AddBadRange(0, d.DumpPart.Sectors(), false)
		}
		journals[i] = workload.NewJournal()
		wls[i] = cfg.NewWorkload()
	}

	loaded := s.NewEvent("loaded")
	audited := s.NewEvent("audited")
	atFault := 0

	// Life 1: boot, load, serve until the fault kills us.
	s.Spawn(nil, "boot", func(p *sim.Proc) {
		engines, err := r.BootAll(p)
		res.Err = err
		for i, e := range engines {
			if err := wls[i].Load(p, e); err != nil {
				res.Err, engines = fmt.Errorf("load domain %d: %w", i, err), nil
				break
			}
		}
		// The operator's inject delay and the clients draw from one generator
		// (see injectDelay): loaded fires before any client is spawned.
		loaded.Fire()
		for i, e := range engines {
			for client := 0; client < cfg.Clients; client++ {
				// Clients live in their domain's guest and die with it.
				s.Spawn(r.Domains[i].Plat.Domain(), fmt.Sprintf("dom%d.client%d", i, client), func(cp *sim.Proc) {
					for {
						if err := workload.DoAs(cp, e, wls[i], journals[i], client); err != nil {
							cp.Sleep(time.Millisecond) // deadlock victim: retry
						}
					}
				})
			}
		}
	})

	// Operator: inject the fault at a sampled moment after load completes.
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		loaded.Wait(p)
		if res.Err != nil {
			audited.Fire()
			return
		}
		p.Sleep(injectDelay(s, cfg.InjectAfterMin, cfg.InjectAfterMax))
		atFault = journaled(journals)
		powerCut := cfg.Fault == PowerCut
		guestDown := cfg.Fault == GuestCrash
		// composeMid fires the composed second fault at the midpoint of a
		// replica outage.
		composeMid := func() {
			switch cfg.Compose {
			case PowerCut:
				r.CutPower()
				powerCut = true
			case GuestCrash:
				r.CrashOS()
				guestDown = true
			}
		}
		switch cfg.Fault {
		case GuestCrash:
			r.CrashOS()
		case PowerCut:
			r.CutPower() // the whole machine: every domain shares the supply
		case DiskError:
			if cfg.PermanentFault {
				r.FaultyLog.AddBadRange(0, r.LogPart.Sectors(), false)
				p.Sleep(cfg.FaultWindow)
			} else {
				r.FaultyLog.SetWriteErrorProb(cfg.MediaErrProb)
				p.Sleep(cfg.FaultWindow)
				r.FaultyLog.SetWriteErrorProb(0)
			}
		case LatencyStorm:
			r.FaultyLog.SetStorm(true)
			p.Sleep(cfg.FaultWindow)
			r.FaultyLog.SetStorm(false)
		case Partition:
			w := cfg.PartitionWindow
			r.Fabric.Isolate(rig.PrimaryEndpoint)
			p.Sleep(w / 2)
			composeMid()
			p.Sleep(w - w/2)
			r.Fabric.Heal()
		case ReplicaCrash:
			down := r.Standbys[:min(cfg.CrashReplicas, len(r.Standbys))]
			for _, st := range down {
				st.Crash()
			}
			p.Sleep(cfg.PartitionWindow / 2)
			composeMid()
			p.Sleep(cfg.PartitionWindow - cfg.PartitionWindow/2)
			for _, st := range down {
				st.Restart()
			}
		}

		// Let the dust settle (hold-up window, hypervisor drain, backlog
		// catch-up), then recover and audit.
		p.Sleep(3 * time.Second)
		if powerCut {
			rep, err := r.RecoverAfterPower(p)
			if err != nil {
				res.Err = fmt.Errorf("power recovery: %w", err)
				audited.Fire()
				return
			}
			res.Torn, res.HadDump, res.DumpFailures = rep.Torn(), rep.HadDump(), rep.DumpFailures()
			for _, dr := range rep.Domains {
				res.DumpRetries += dr.DumpRetries
			}
		} else {
			if cfg.Fault.isMediaFault() || (cfg.Fault.isReplicaFault() && !guestDown) {
				// The machine never died: crash its guest, so the audit
				// reads what recovery makes of the acks made up to here.
				r.CrashOS()
				// The hypervisor outlives the guest; give its drainer (and,
				// when degraded, the probe cadence) time to land the backlog
				// before sampling what is still stranded. Only a fault that
				// never cleared leaves bytes behind here.
				p.Sleep(2 * time.Second)
				if r.Logger != nil {
					res.BufferedAfter = r.Logger.BufferedBytes()
					res.Degraded = r.Logger.IsDegraded()
				}
			}
			r.RebootAfterCrash()
		}
		s.Spawn(nil, "audit", func(p *sim.Proc) {
			defer audited.Fire()
			engines, err := r.BootAll(p)
			if err != nil {
				res.Err = fmt.Errorf("recovery: %w", err)
				return
			}
			res.Err = res.audit(p, journals, engines, atFault)
		})
	})

	runErr := runToAudit(s, audited)
	for _, d := range r.Domains {
		if d.Fabric != nil {
			res.ReplLagMax = max(res.ReplLagMax, d.Obs.Registry().Gauge("repl.lag").Peak())
		}
	}
	res.finish(s, runErr, r.Obs, r.Monitor, r.Flight)
}
