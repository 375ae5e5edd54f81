// Package faultinject runs the paper's destructive experiments: repeated
// guest crashes and plug-pulls under load, each followed by recovery and a
// durability audit against the client-side journal. One campaign = many
// independent trials, each in its own deterministic simulation.
package faultinject

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/obs"
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
	// PartitionWindow, then heals (rapilog-replica mode only). Composable
	// with PowerCut/GuestCrash via Compose.
	Partition Fault = "partition"
	// ReplicaCrash crashes CrashReplicas standbys for PartitionWindow,
	// then restarts them (rapilog-replica mode only). Composable like
	// Partition.
	ReplicaCrash Fault = "replica-crash"
)

// isMediaFault reports whether f injects through the disk.Faulty wrapper
// (and therefore leaves the machine itself running).
func (f Fault) isMediaFault() bool { return f == DiskError || f == LatencyStorm }

// isReplicaFault reports whether f injects into the replication fabric.
func (f Fault) isReplicaFault() bool { return f == Partition || f == ReplicaCrash }

// CampaignConfig parameterises a fault-injection campaign.
type CampaignConfig struct {
	Rig     rig.Config
	Fault   Fault
	Trials  int // default 20
	Clients int // default 4
	// InjectAfterMin/Max bound the virtual time between workload start and
	// fault injection; the exact instant is sampled per trial. Defaults
	// 200ms..2s.
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
	// Shards, when > 1, runs every trial against a sharded deployment
	// (rig.NewSharded): each shard gets its own workload copy, journal and
	// client pool, the fault hits the whole machine, and recovery runs
	// per-shard in parallel. PowerCut only — the plug-pull is the one fault
	// that is machine-wide by nature.
	Shards int
	// Workload factory; default: a small TPC-C.
	NewWorkload func() workload.Workload
}

func (c *CampaignConfig) applyDefaults() {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.InjectAfterMin == 0 {
		c.InjectAfterMin = 200 * time.Millisecond
	}
	if c.InjectAfterMax == 0 {
		c.InjectAfterMax = 2 * time.Second
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
			return &workload.TPCC{Warehouses: 1, Districts: 4, Customers: 20, Items: 200}
		}
	}
}

// validate rejects configurations that could never run a sane trial.
func (c *CampaignConfig) validate() error {
	if c.InjectAfterMin < 0 {
		return fmt.Errorf("faultinject: negative InjectAfterMin %v", c.InjectAfterMin)
	}
	if c.InjectAfterMax < c.InjectAfterMin {
		return fmt.Errorf("faultinject: InjectAfterMax %v < InjectAfterMin %v",
			c.InjectAfterMax, c.InjectAfterMin)
	}
	// applyDefaults only replaces zero values, so an explicitly negative
	// window reaches here; downstream it would silently collapse to a
	// zero-length Sleep and a fault that "passes" without ever firing.
	if c.FaultWindow <= 0 {
		return fmt.Errorf("faultinject: FaultWindow %v is not a positive window", c.FaultWindow)
	}
	if c.PartitionWindow <= 0 {
		return fmt.Errorf("faultinject: PartitionWindow %v is not a positive window", c.PartitionWindow)
	}
	if c.MediaErrProb < 0 || c.MediaErrProb > 1 {
		return fmt.Errorf("faultinject: MediaErrProb %v outside [0, 1]", c.MediaErrProb)
	}
	switch c.Fault {
	case GuestCrash, PowerCut, DiskError, LatencyStorm:
	case Partition, ReplicaCrash:
		if !c.Rig.Mode.Replicated() {
			return fmt.Errorf("faultinject: fault %q needs mode %q", c.Fault, rig.RapiLogReplica)
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
	if c.Shards < 0 {
		return fmt.Errorf("faultinject: negative shard count %d", c.Shards)
	}
	if c.Shards > 1 && c.Fault != PowerCut {
		return fmt.Errorf("faultinject: sharded campaigns support %q only, not %q", PowerCut, c.Fault)
	}
	if c.Rig.Mode == rig.RapiLogSharded && c.Shards < 2 {
		return fmt.Errorf("faultinject: mode %q needs Shards >= 2", rig.RapiLogSharded)
	}
	return nil
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	Seed       int64
	Acked      int // transactions acknowledged before the fault
	Missing    int // acked transactions absent after recovery
	Mismatched int
	Torn       bool // RapiLog dump ended mid-entry (unsafe sizing only)
	HadDump    bool // a valid dump header was found at recovery
	// Media-fault trials (RapiLog mode).
	Degraded      bool  // the logger was in pass-through at audit time
	BufferedAfter int64 // bytes still stranded after the settle window
	// Power-cut trials: the dying epoch's dump-path counters.
	DumpRetries  int
	DumpFailures int
	// Replica-mode trials: the replication stream's peak unacked depth
	// (records shipped but not yet held by every standby).
	ReplLagMax int64
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

// Ok reports whether the trial had zero durability violations.
func (t TrialResult) Ok() bool { return t.Err == nil && t.Missing == 0 && t.Mismatched == 0 }

// Summary aggregates a campaign.
type Summary struct {
	Config         CampaignConfig
	Trials         []TrialResult
	TotalAcked     int
	TotalLost      int
	Violations     int // trials with any loss or corruption
	Errors         int
	DegradedTrials int   // trials that ended with the logger in pass-through
	DumpFailures   int   // emergency dumps that never reached the zone
	MaxReplLag     int64 // worst per-trial replication lag peak
	// MonitorViolations totals the online monitor's findings across trials.
	MonitorViolations int
	// Artifacts is the campaign's retained forensic capture: the first
	// violating/erroring trial's, or — when every trial is clean — the last
	// trial's. One capture per campaign bounds memory.
	Artifacts    *Artifacts
	artifactsBad bool
}

// add folds one trial into the aggregate. Loss/corruption is counted
// independently of the error flag: a trial can both error out and lose
// data, and hiding the loss under the error would understate Violations.
func (s *Summary) add(res TrialResult) {
	if res.Artifacts != nil {
		if !s.artifactsBad {
			s.Artifacts = res.Artifacts
			if !res.Ok() || res.MonitorViolations > 0 {
				s.artifactsBad = true // pin the first bad trial's capture
			}
		}
		res.Artifacts = nil
	}
	s.MonitorViolations += res.MonitorViolations
	s.Trials = append(s.Trials, res)
	s.TotalAcked += res.Acked
	s.TotalLost += res.Missing
	if res.Missing > 0 || res.Mismatched > 0 {
		s.Violations++
	}
	if res.Err != nil {
		s.Errors++
	}
	if res.Degraded {
		s.DegradedTrials++
	}
	s.DumpFailures += res.DumpFailures
	if res.ReplLagMax > s.MaxReplLag {
		s.MaxReplLag = res.ReplLagMax
	}
}

func (s Summary) String() string {
	extra := ""
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
	return fmt.Sprintf("%s/%s: %d trials, %d acked commits, %d lost, %d violating trials, %d errors%s",
		s.Config.Rig.Mode, fault, len(s.Trials), s.TotalAcked, s.TotalLost, s.Violations, s.Errors, extra)
}

// RunCampaign executes cfg.Trials independent trials with seeds base+i·7919,
// up to cfg.Parallel at a time. Every trial runs in its own simulation whose
// schedule depends only on its seed, so the worker pool changes wall-clock
// time and nothing else: results land in seed-indexed slots and are folded
// in order, and the Summary is identical to what a sequential run produces.
func RunCampaign(cfg CampaignConfig) Summary {
	cfg.applyDefaults()
	sum := Summary{Config: cfg}
	if err := cfg.validate(); err != nil {
		sum.Trials = append(sum.Trials, TrialResult{Err: err})
		sum.Errors = 1
		return sum
	}
	par := cfg.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > cfg.Trials {
		par = cfg.Trials
	}
	results := make([]TrialResult, cfg.Trials)
	if par <= 1 {
		for i := 0; i < cfg.Trials; i++ {
			results[i] = RunTrial(cfg, cfg.Rig.Seed+int64(i)*7919)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = RunTrial(cfg, cfg.Rig.Seed+int64(i)*7919)
				}
			}()
		}
		for i := 0; i < cfg.Trials; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i := range results {
		if results[i].Artifacts != nil {
			results[i].Artifacts.Trial = i
		}
		sum.add(results[i])
	}
	return sum
}

// debugHook, when non-nil, runs inside the audit of a trial that lost
// data. Test-only.
var debugHook func(p *sim.Proc, r *rig.Rig, e *engine.Engine, j *workload.Journal, acked int, vr workload.VerifyResult)

// RunTrial executes one load→fault→recover→audit cycle in a fresh
// simulation with the given seed.
func RunTrial(cfg CampaignConfig, seed int64) TrialResult {
	cfg.applyDefaults()
	res := TrialResult{Seed: seed}
	if err := cfg.validate(); err != nil {
		res.Err = err
		return res
	}
	if cfg.Shards > 1 {
		return runShardedTrial(cfg, seed)
	}

	rigCfg := cfg.Rig
	rigCfg.Seed = seed
	rigCfg.NoDaemons = false
	if cfg.Fault.isMediaFault() && !rigCfg.LogFault.Enabled {
		// The fault layer starts quiet; the operator opens the window.
		rigCfg.LogFault = disk.FaultConfig{Enabled: true, Seed: seed * 31}
	}
	if cfg.BreakDump && !rigCfg.DumpFault.Enabled {
		rigCfg.DumpFault = disk.FaultConfig{Enabled: true, Seed: seed*31 + 7}
	}
	r, err := rig.New(rigCfg)
	if err != nil {
		res.Err = err
		return res
	}
	defer r.Close()
	if cfg.BreakDump {
		// Every dump-zone write fails permanently; reads still succeed
		// (returning whatever is there — zeros), so recovery sees "no dump"
		// rather than an I/O error, exactly like a zone that silently
		// rotted.
		r.FaultyDump.AddBadRange(0, r.DumpPart.Sectors(), false)
	}
	s := r.S
	j := workload.NewJournal()
	w := cfg.NewWorkload()

	loaded := s.NewEvent("loaded")
	audited := s.NewEvent("audited")

	// Life 1: boot, load, serve until the fault kills us.
	s.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			res.Err = fmt.Errorf("boot: %w", err)
			loaded.Fire()
			return
		}
		if err := w.Load(p, e); err != nil {
			res.Err = fmt.Errorf("load: %w", err)
			loaded.Fire()
			return
		}
		loaded.Fire()
		for c := 0; c < cfg.Clients; c++ {
			client := c
			s.Spawn(r.Plat.Domain(), fmt.Sprintf("client%d", client), func(cp *sim.Proc) {
				for {
					var err error
					if st, ok := w.(*workload.Stress); ok {
						err = st.DoAs(cp, e, j, client)
					} else {
						err = w.Do(cp, e, j)
					}
					if err != nil {
						cp.Sleep(time.Millisecond) // deadlock victim: retry
					}
				}
			})
		}
	})

	// Operator: inject the fault at a sampled moment after load completes.
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
		res.Acked = j.Len()
		powerCut := cfg.Fault == PowerCut
		guestDown := cfg.Fault == GuestCrash
		// composeMid fires the composed second fault at the midpoint of a
		// replica outage. The obligation set is re-sampled first: commits
		// acked during the outage are legitimate promises of whatever
		// policy is active (under AckLocal the partition doesn't slow acks
		// at all — which is exactly the exposure A9 demonstrates).
		composeMid := func() {
			res.Acked = j.Len()
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
			r.CutPower()
		case DiskError:
			if cfg.PermanentFault {
				r.FaultyLog.AddBadRange(0, r.LogPart.Sectors(), false)
				p.Sleep(cfg.FaultWindow)
			} else {
				r.FaultyLog.SetErrorProbs(0, cfg.MediaErrProb)
				p.Sleep(cfg.FaultWindow)
				r.FaultyLog.SetErrorProbs(0, 0)
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
			n := cfg.CrashReplicas
			if n > len(r.Standbys) {
				n = len(r.Standbys)
			}
			for _, st := range r.Standbys[:n] {
				st.Crash()
			}
			p.Sleep(cfg.PartitionWindow / 2)
			composeMid()
			p.Sleep(cfg.PartitionWindow - cfg.PartitionWindow/2)
			for _, st := range r.Standbys[:n] {
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
			res.Torn = rep.Torn
			res.HadDump = rep.HadDump
			res.DumpRetries = rep.DumpRetries
			res.DumpFailures = rep.DumpFailures
		} else {
			if cfg.Fault.isMediaFault() || (cfg.Fault.isReplicaFault() && !guestDown) {
				// The machine never died: every acknowledgement up to this
				// crash — including those made during the fault window — is
				// an obligation the audit must see honoured.
				res.Acked = j.Len()
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
		s.Spawn(r.Plat.Domain(), "db2", func(p *sim.Proc) {
			defer audited.Fire()
			e, err := r.Boot(p)
			if err != nil {
				res.Err = fmt.Errorf("recovery boot: %w", err)
				return
			}
			// Audit only what was acked before injection: acks raced with
			// the fault are not obligations.
			vr, err := j.VerifyFirst(p, e, res.Acked)
			if err != nil {
				res.Err = fmt.Errorf("audit: %w", err)
				return
			}
			res.Missing = vr.Missing
			res.Mismatched = vr.Mismatched
			if debugHook != nil && vr.Missing > 0 {
				debugHook(p, r, e, j, res.Acked, vr)
			}
		})
	})

	runErr := s.RunFor(10 * time.Minute)
	if r.Fabric != nil {
		res.ReplLagMax = r.Obs.Registry().Gauge("repl.lag").Peak()
	}
	if r.Obs.Tracer().Enabled() {
		dump := r.Obs.Tracer().Dump()
		snap := r.Obs.Registry().Snapshot()
		res.Artifacts = &Artifacts{Seed: seed, Trace: &dump, Metrics: &snap}
		if r.Monitor != nil {
			res.MonitorViolations = r.Monitor.Total()
			mr := r.Monitor.Report()
			res.Artifacts.Monitor = &mr
		}
		if r.Flight != nil {
			// A trial that never hit a freeze trigger still yields a usable
			// black box: seal it at trial end.
			r.Flight.Freeze(s.Now().Duration(), "trial-end")
			res.Artifacts.Flight = r.Flight.Record()
		}
	}
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
