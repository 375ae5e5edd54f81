// Package rig assembles complete simulated deployments: machine, disks,
// partitions, platform (native or hypervisor), the RapiLog device when
// configured, and the boot/reboot sequences that tie them together. It is
// the shared substrate of the experiment harness, the fault-injection
// campaigns, and the public API.
//
// A rig realises one of the paper's four evaluation configurations:
//
//	native-sync   DBMS on bare metal, synchronous commits (safe, slow)
//	native-async  DBMS on bare metal, asynchronous commits (fast, unsafe)
//	virt-sync     DBMS in a VM, pass-through disks, synchronous commits
//	              (the virtualisation-overhead baseline)
//	rapilog       DBMS in a VM, log partition interposed by RapiLog
//	              (fast and safe — the paper's contribution)
//
// There is one topology. A Rig is a machine — simulation, power supply,
// hypervisor, observability — carrying 1..N LogDomains (Config.Shards), each
// an independent commit stream with its own disks, guest, logger and
// replication fleet; New is the only machine constructor. A Cluster is N such
// machines on one simulation and one fabric, one of them leading. Every log
// domain anywhere is built by the same two steps — newLogDomain (storage),
// then assemblePlatform — and told where it lives by an explicit site.
package rig

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/sim"
)

// Mode selects the deployment configuration.
type Mode string

// The four evaluation configurations. Replication is not a mode: a RapiLog
// machine with Config.Replicas > 0 ships its log to that many standbys.
const (
	NativeSync  Mode = "native-sync"
	NativeAsync Mode = "native-async"
	VirtSync    Mode = "virt-sync"
	RapiLog     Mode = "rapilog"
	// Deprecated: a replicated machine is RapiLog with Replicas > 0 or a
	// remote AckPolicy. benchmark/steady.go is the last caller (ROADMAP item 4).
	RapiLogReplica Mode = RapiLog
)

// Modes lists the paper's four evaluation configurations in evaluation
// order: every mode there is.
var Modes = []Mode{NativeSync, NativeAsync, VirtSync, RapiLog}

// Virtualised reports whether the mode runs under the hypervisor.
func (m Mode) Virtualised() bool { return m == VirtSync || m == RapiLog }

// PrimaryEndpoint is the primary machine's name on the replication fabric.
const PrimaryEndpoint = "primary"

// CommitMode returns the engine commit policy the mode implies.
func (m Mode) CommitMode() engine.CommitMode {
	if m == NativeAsync {
		return engine.CommitAsync
	}
	return engine.CommitSync
}

// DiskKind selects the storage model.
type DiskKind string

// Storage models.
const (
	DiskHDD DiskKind = "hdd"
	DiskSSD DiskKind = "ssd"
	DiskMem DiskKind = "mem"
)

// Partition sizes in sectors (512 B): the data partition gets the rest of
// the disk.
const (
	logSectors  = 262144 // 128 MiB
	dumpSectors = 131072 // 64 MiB
)

// fabricSeedOffset is added to the seed for the replication fabric's private
// fault generator (the log and dump fault layers take +1 and +3).
const fabricSeedOffset = 2

// Config parameterises a deployment.
type Config struct {
	Seed        int64
	Mode        Mode
	Personality engine.Personality // default engine.PGLike
	Disk        DiskKind           // default DiskHDD
	HDD         disk.HDDConfig     // overrides for DiskHDD
	PSU         power.PSUConfig    // default power.PSUMeasured
	Cores       int                // default 4
	RapiLog     core.Config
	// Engine knobs.
	CheckpointEvery time.Duration
	NoDaemons       bool
	// LogDiskKind, if set, puts the log and dump partitions on a dedicated
	// device of that kind, removing arm contention with data traffic: the
	// same kind as Disk is the classic second spindle the paper's testbed
	// used, DiskMem the battery-backed NVRAM log the paper positions RapiLog
	// against.
	LogDiskKind DiskKind
	// LogFault, when Enabled, wraps the log partition in a disk.Faulty so
	// campaigns and operators can inject media faults — transient I/O
	// errors, grown bad sectors, latency storms — into the drain/WAL path.
	// The dump zone and the data partition stay clean.
	LogFault disk.FaultConfig
	// DumpFault, when Enabled, wraps the dump zone the same way — the
	// fault the replication campaigns compose with power loss to show what
	// a remote durability domain buys when the local one fails.
	DumpFault disk.FaultConfig
	// Shards splits the machine into that many fully independent log domains
	// — each with its own disks, log partition, dump zone, guest, logger and
	// (when replicated) fabric + standby fleet; Rig.Run hash-partitions a
	// workload across them. They share the simulation, the power supply (so
	// each buffer is sized by the N-sharer hold-up budget) and the one
	// hypervisor. 0 is the paper's machine: one domain, no name prefix; 1 is
	// the same machine (Normalize folds it to 0). RapiLog mode only: the other
	// modes have no log device to partition.
	Shards int
	// Replicas is the standby count, and replication is nothing else: with
	// Replicas > 0 every log domain of a RapiLog machine ships its log to its
	// own fleet of that many. A remote AckPolicy (quorum, remote-only)
	// defaults it to 2; see Normalize.
	Replicas  int
	AckPolicy core.AckPolicy // default AckLocal
	Net       netsim.LinkConfig
	// Trace enables commit-lifecycle tracing; TraceCapacity sizes the event
	// ring (default 1<<16). Metrics are always registered centrally on the
	// rig's Obs bundle; only the tracer is gated, keeping the default rig
	// free of per-event cost.
	Trace         bool
	TraceCapacity int
	// Flight arms the crash flight recorder: tracing is forced on, an online
	// invariant monitor consumes every event, and the first catastrophic
	// trigger — power loss, degrade entry, or an invariant violation —
	// freezes the recent event window plus trailing metric snapshots into a
	// post-mortem FlightRecord (Rig.Flight, and RecoveryReport.Flight after
	// RecoverAfterPower).
	Flight bool
}

// defaultReplicas is the standby count a remote ack policy gets when
// Replicas is unset.
const defaultReplicas = 2

// Normalize resolves the config in place — defaults, then a check naming the
// field of what no machine can be built from — and is idempotent. It is the
// one place replication is decided: a remote AckPolicy gets Replicas 2 and K
// 1 unless set, K ≤ Replicas, and Replicas > 0 is what "replicated" means. A
// one-domain machine has one encoding: Shards 1 becomes 0.
func (c *Config) Normalize() error {
	if c.Shards == 1 {
		c.Shards = 0
	}
	if c.Mode == "" {
		c.Mode = RapiLog
	}
	if c.Personality.Name == "" {
		c.Personality = engine.PGLike
	}
	if c.Disk == "" {
		c.Disk = DiskHDD
	}
	if c.PSU.Name == "" {
		c.PSU = power.PSUMeasured
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.AckPolicy.Remote() {
		if c.Replicas == 0 {
			c.Replicas = defaultReplicas
		}
		// Core's own default, resolved here so the monitor's contract and
		// the trace quorum agree with the logger about K.
		if c.AckPolicy.K == 0 {
			c.AckPolicy.K = 1
		}
	}
	switch {
	case !slices.Contains(Modes, c.Mode):
		return fmt.Errorf("rig: unknown mode %q (one of %v)", c.Mode, Modes)
	case c.Replicas < 0:
		return fmt.Errorf("rig: Replicas %d: the standby count cannot be negative", c.Replicas)
	case c.AckPolicy.K < 0:
		return fmt.Errorf("rig: AckPolicy.K %d: a commit cannot wait for a negative number of standbys", c.AckPolicy.K)
	case c.AckPolicy.K > c.Replicas:
		return fmt.Errorf("rig: AckPolicy.K %d exceeds Replicas %d: a %v commit could never be acknowledged", c.AckPolicy.K, c.Replicas, c.AckPolicy)
	case c.Replicas > 0 && c.Mode != RapiLog:
		return fmt.Errorf("rig: mode %q cannot replicate (Replicas %d): only %q has a log device to ship", c.Mode, c.Replicas, RapiLog)
	case c.Shards < 0:
		return fmt.Errorf("rig: negative shard count %d", c.Shards)
	case c.Shards > 0 && c.Mode != RapiLog:
		return fmt.Errorf("rig: mode %q cannot be sharded (no log device to partition)", c.Mode)
	case c.Shards > math.MaxUint8:
		return fmt.Errorf("rig: Shards %d: a trace event names one of at most %d shards", c.Shards, math.MaxUint8)
	}
	return nil
}

// Rig is one assembled machine: the simulation, the power supply, the one
// hypervisor, the root observability bundle with its monitor and flight
// recorder, and 1..N log domains. The first domain is embedded, so on the
// paper's one-domain machine r.Plat, r.Logger, r.Boot and friends read as
// they always did.
type Rig struct {
	Cfg     Config
	S       *sim.Sim
	Machine *power.Machine
	HV      *hv.Hypervisor // nil in native modes
	// Obs is the machine's root bundle, shared by every layer; domain i of a
	// sharded machine registers its instruments under "shard.<i>.*".
	Obs *obs.Obs

	Domains    []*LogDomain
	*LogDomain // Domains[0]

	// Runtime verification (Config.Flight, or Config.Trace for Monitor
	// alone). The monitor re-checks the safety invariants online against the
	// live event stream; the flight recorder freezes a post-mortem at the
	// first catastrophic trigger.
	Monitor *obs.Monitor
	Flight  *obs.FlightRecorder
}

// New builds a machine. In the virtualised modes the hypervisor and the
// RapiLog devices are created as part of "platform firmware" — before any
// guest runs, as on the real system.
func New(cfg Config) (*Rig, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	s := sim.New(cfg.Seed)
	o := obs.New(obs.Config{TraceEnabled: cfg.Trace || cfg.Flight, TraceCapacity: cfg.TraceCapacity})
	r := newMachine(cfg, s, "machine", o)
	for i := 0; i < max(cfg.Shards, 1); i++ {
		do, at := o, site{sharers: 1, endpoint: PrimaryEndpoint}
		if cfg.Shards > 0 {
			do = o.Shard(i)
			at.prefix, at.sharers = fmt.Sprintf("shard%d.", i), cfg.Shards
			// Decorrelate the derived fault and fabric seeds: two shards with
			// the same media-fault schedule would make "independent domains"
			// fail together.
			at.seedOffset = int64(i+1) * 7919
		}
		d, err := r.newLogDomain(do, at)
		if err == nil {
			err = d.assemblePlatform()
		}
		if err != nil {
			r.Close() // earlier domains have already spawned their daemons
			return nil, err
		}
	}
	r.setupVerification()
	return r, nil
}

// newMachine builds the part of a deployment there is one of per machine:
// the power supply and, in the virtualised modes, the hypervisor every log
// domain's guest runs under. A cluster calls it once per node, on the
// cluster's simulation and a per-node view of its Obs.
func newMachine(cfg Config, s *sim.Sim, name string, o *obs.Obs) *Rig {
	m := power.NewMachine(s, name, cfg.Cores, cfg.PSU)
	m.SetObs(o)
	r := &Rig{Cfg: cfg, S: s, Machine: m, Obs: o}
	if cfg.Mode.Virtualised() {
		r.HV = hv.New(m, o)
	}
	return r
}

// Close ends the machine's simulation and releases every process it still
// holds (sim.Sim.Close). Call it when the run is over and its results have
// been read; a cluster node's rig is closed through the Cluster.
func (r *Rig) Close() { r.S.Close() }

// setupVerification arms the online invariant monitor (whenever tracing is
// on) and the flight recorder (Config.Flight): the monitor consumes every
// trace event as the tracer's observer, judging each log domain by its own
// events, and the recorder freezes at the first power loss, degrade entry,
// or invariant violation.
func (r *Rig) setupVerification() {
	tr := r.Obs.Tracer()
	if !tr.Enabled() {
		return
	}
	mc := r.contract()
	mc.Trace = tr
	r.Monitor = obs.NewMonitor(mc)
	if !r.Cfg.Flight {
		tr.SetObserver(r.Monitor.Consume)
		return
	}
	r.Flight = obs.NewFlightRecorder(r.Obs, r.Monitor)
	fl := r.Flight
	r.Monitor.OnViolation = func(v obs.Violation) {
		fl.Freeze(v.At(), "invariant:"+v.Invariant)
	}
	mon := r.Monitor
	tr.SetObserver(func(e obs.Event) {
		mon.Consume(e)
		switch e.Kind {
		case obs.EvPowerDC:
			fl.Freeze(e.At, "power-dc-loss")
		case obs.EvDegraded:
			fl.Freeze(e.At, "degraded")
		}
	})
	// Periodic metric snapshots, from a domain-less daemon so the ring keeps
	// filling across guest crashes and power cycles alike.
	r.S.Spawn(nil, "flight.snap", func(p *sim.Proc) {
		p.SetDaemon(true)
		for !fl.Frozen() {
			p.Sleep(obs.FlightSnapEvery)
			fl.Snap(p.Now().Duration())
		}
	})
}

// contract is what each log domain of the machine is checked against, online
// by its monitor and offline from its artifacts: the exposure bound, the
// quorum an ack needs (0 = local acks) and the shipper's retention limit.
// Every domain is built from the one Config, so the first domain's serves.
func (r *Rig) contract() obs.MonitorConfig {
	c := obs.MonitorConfig{Bound: r.SafeBound()}
	if r.Cfg.AckPolicy.Remote() {
		c.QuorumK = r.Cfg.AckPolicy.K
	}
	if r.Cfg.AckPolicy.Kind == core.AckKindRemoteOnly && r.Logger != nil {
		// The emergency dump is disabled by design, so exposure is bounded
		// by the configured buffer alone, not the dumpable window.
		c.Bound = r.Logger.MaxBuffer()
	}
	if r.Cfg.Replicas > 0 {
		// The shipper trims to its RetainLimit at the next ack or probe
		// round; only beyond that is high retention a violation.
		c.RetainLimit = replica.DefaultRetainLimit
		c.RetainGrace = 2 * replica.RetransmitEvery
	}
	return c
}

// AuditExposure replays the machine's trace into the durability-exposure
// report: the time-series of acknowledged-but-undrained bytes, per-write
// ack→durable latency, and the verdict against the contract's bound — the
// one the monitor checks, per log domain. Requires Config.Trace.
func (r *Rig) AuditExposure() (obs.ExposureReport, error) {
	tr := r.Obs.Tracer()
	if !tr.Enabled() {
		return obs.ExposureReport{}, fmt.Errorf("rig: exposure audit needs tracing (set Config.Trace)")
	}
	return obs.AuditExposure(tr.Events(), r.contract().Bound, tr.Dropped() > 0), nil
}

// CutPower starts a mains-loss event (the plug-pull) for the whole machine:
// every domain's power-fail handler fires and dumps to its own spindle
// inside the one shared hold-up window. Returns the sampled hold-up.
// Everything on the machine dies when the window closes.
func (r *Rig) CutPower() time.Duration { return r.Machine.CutPower() }

// RecoverAfterPower restores power, reboots the hypervisor once, and
// rebuilds every domain's platform stack, replaying its RapiLog dump zone
// into its log partition before the guest boots — exactly the order the
// real system recovers in. Each domain recovers in its own process, all in
// parallel: each touches only its own spindle, so the machine recovers in
// roughly the time of its slowest domain rather than the sum. Returns one
// report section per domain. Call Boot next.
func (r *Rig) RecoverAfterPower(p *sim.Proc) (Recovery, error) {
	r.Machine.RestorePower()
	if r.HV != nil {
		r.HV.Reboot()
	}
	n := len(r.Domains)
	rep := Recovery{Domains: make([]core.RecoveryReport, n)}
	errs := make([]error, n)
	remaining := n
	done := r.S.NewSignal("recover.done")
	for i, d := range r.Domains {
		i, d := i, d
		r.S.Spawn(nil, d.at.prefix+"recover", func(pp *sim.Proc) {
			rep.Domains[i], errs[i] = d.recover(pp)
			remaining--
			done.Broadcast()
		})
	}
	for remaining > 0 {
		done.Wait(p)
	}
	// The flight recorder froze when DC died; hand the black box to the
	// caller alongside the replay summary.
	rep.Flight = r.Flight.Record()
	for i, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("rig: log domain %d recovery: %w", i, err)
		}
	}
	return rep, nil
}

// Recovery is a machine's power-recovery report: one section per log domain,
// in domain order, plus machine-wide totals.
type Recovery struct {
	Domains []core.RecoveryReport
	// Flight is the flight record frozen at the power loss, when the machine
	// was running a flight recorder; nil otherwise.
	Flight *obs.FlightRecord
}

// Entries returns the total dump entries replayed across all domains.
func (m Recovery) Entries() int {
	n := 0
	for _, d := range m.Domains {
		n += d.Entries
	}
	return n
}

// Bytes returns the total bytes replayed across all domains.
func (m Recovery) Bytes() int64 {
	var n int64
	for _, d := range m.Domains {
		n += d.Bytes
	}
	return n
}

// HadDump reports whether any domain found a dump image.
func (m Recovery) HadDump() bool {
	for _, d := range m.Domains {
		if d.HadDump {
			return true
		}
	}
	return false
}

// Torn reports whether any domain's dump image was torn — its hold-up
// deadline hit mid-dump. One torn domain makes the machine's recovery torn.
func (m Recovery) Torn() bool {
	for _, d := range m.Domains {
		if d.Torn {
			return true
		}
	}
	return false
}

// DumpFailures returns the total failed dump writes across all domains.
func (m Recovery) DumpFailures() int {
	n := 0
	for _, d := range m.Domains {
		n += d.DumpFailures
	}
	return n
}

// RollupCounter sums the counter name over every log domain's registry view
// ("shard.<i>.<name>" on a sharded machine). Registry access is
// get-or-create, so a domain that never registered the instrument adds zero.
func (r *Rig) RollupCounter(name string) int64 {
	var total int64
	for _, d := range r.Domains {
		total += d.Obs.Registry().Counter(name).Value()
	}
	return total
}

// RollupHistogram merges the histogram name over every log domain into one
// machine-wide distribution (see metrics.Histogram.Merge — bucket layouts are
// identical, so quantiles combine exactly up to quantisation).
func (r *Rig) RollupHistogram(name string) *metrics.Histogram {
	out := metrics.NewHistogram(name)
	for _, d := range r.Domains {
		out.Merge(d.Obs.Registry().Histogram(name))
	}
	return out
}
