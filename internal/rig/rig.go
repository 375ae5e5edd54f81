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
package rig

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/sim"
)

// Mode selects the deployment configuration.
type Mode string

// The four evaluation configurations.
const (
	NativeSync  Mode = "native-sync"
	NativeAsync Mode = "native-async"
	VirtSync    Mode = "virt-sync"
	RapiLog     Mode = "rapilog"
	// RapiLogReplica extends RapiLog with a simulated network fabric and N
	// standby replicas: every buffered write is shipped to the standbys and
	// the ack policy decides which durability domain gates the commit.
	RapiLogReplica Mode = "rapilog-replica"
)

// Modes lists the paper's four evaluation configurations in evaluation
// order. RapiLogReplica is the replication extension, not part of the
// original comparison sweep.
var Modes = []Mode{NativeSync, NativeAsync, VirtSync, RapiLog}

// Virtualised reports whether the mode runs under the hypervisor.
func (m Mode) Virtualised() bool {
	return m == VirtSync || m == RapiLog || m == RapiLogReplica
}

// Replicated reports whether the mode ships the log to standby replicas.
func (m Mode) Replicated() bool { return m == RapiLogReplica }

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

// Config parameterises a deployment.
type Config struct {
	Seed        int64
	Mode        Mode
	Personality engine.Personality // default engine.PGLike
	Disk        DiskKind           // default DiskHDD
	HDD         disk.HDDConfig     // overrides for DiskHDD
	SSD         disk.SSDConfig     // overrides for DiskSSD
	PSU         power.PSUConfig    // default power.PSUMeasured
	Cores       int                // default 4
	HV          hv.Config
	RapiLog     core.Config
	// Engine knobs.
	CheckpointEvery time.Duration
	LockTimeout     time.Duration
	NoDaemons       bool
	// Partition sizes in sectors (512 B). Defaults: log 128 MiB, dump
	// 64 MiB, data the remainder.
	LogSectors  int64
	DumpSectors int64
	// DedicatedLogDisk puts the log and dump partitions on their own
	// spindle (of the same kind), removing arm contention with data
	// traffic — the classic deployment the paper's testbed used.
	DedicatedLogDisk bool
	// LogDiskKind, if set, gives the (implicitly dedicated) log device a
	// different storage model than the data disk — e.g. DiskMem for the
	// battery-backed NVRAM log the paper positions RapiLog against.
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
	// Replication (Mode == RapiLogReplica only).
	Replicas  int            // standby count; default 2
	AckPolicy core.AckPolicy // default AckLocal
	Net       netsim.LinkConfig
	// NetSeed drives the fabric's private fault generator; default Seed+2.
	NetSeed int64
	Replica replica.Config
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
	// FlightSnapEvery overrides the recorder's metric-snapshot cadence
	// (default 250ms of virtual time).
	FlightSnapEvery time.Duration

	// Sharded-deployment plumbing, set only by NewSharded: namePrefix
	// distinguishes this shard's disks, guests and procs on the shared
	// machine; sharers is the shard count feeding the N-aware sizing rule;
	// sharedHV is the one hypervisor every shard's guest runs under.
	namePrefix string
	sharers    int
	sharedHV   *hv.Hypervisor

	// HA-cluster plumbing, set only by NewCluster and Cluster promotion:
	// primaryName gives this node's shipper its own fabric endpoint (the
	// node name, not the global "primary"); extFabric/extStandbys graft the
	// rig onto the cluster's shared fabric and peer stores instead of
	// building a private fleet; startEpoch makes a promoted rig continue
	// the cluster's monotone epoch sequence; deferPlatform leaves platform
	// assembly (and monitor arming) to the cluster, which must replay the
	// winner's prefix into the log partition before the logger exists.
	primaryName   string
	extFabric     *netsim.Fabric
	extStandbys   []*replica.Standby
	startEpoch    int
	deferPlatform bool
}

// primary returns the fabric endpoint this rig's shipper answers on.
func (c *Config) primary() string {
	if c.primaryName != "" {
		return c.primaryName
	}
	return PrimaryEndpoint
}

func (c *Config) applyDefaults() {
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
	if c.LogSectors == 0 {
		c.LogSectors = 262144 // 128 MiB
	}
	if c.DumpSectors == 0 {
		c.DumpSectors = 131072 // 64 MiB
	}
	if c.Mode.Replicated() {
		if c.Replicas == 0 {
			c.Replicas = 2
		}
		if c.NetSeed == 0 {
			c.NetSeed = c.Seed + 2
		}
		// Mirror core's default so the rig's monitor and quorum tracing
		// agree with the logger about the effective quorum size.
		if c.AckPolicy.Remote() && c.AckPolicy.K == 0 {
			c.AckPolicy.K = 1
		}
	}
}

// Rig is an assembled deployment.
type Rig struct {
	Cfg      Config
	S        *sim.Sim
	Machine  *power.Machine
	Disk     disk.Device
	LogPart  *disk.Partition
	DumpPart *disk.Partition
	DataPart *disk.Partition
	// LogDev is what the platform's log path actually consumes: LogPart,
	// wrapped by FaultyLog when Config.LogFault is enabled.
	LogDev    disk.Device
	FaultyLog *disk.Faulty // nil unless Config.LogFault.Enabled
	// DumpDev is what the emergency dump actually writes to (and Recover
	// reads from): DumpPart, wrapped by FaultyDump when Config.DumpFault
	// is enabled.
	DumpDev    disk.Device
	FaultyDump *disk.Faulty   // nil unless Config.DumpFault.Enabled
	HV         *hv.Hypervisor // nil in native modes
	Plat       hv.Platform
	Logger     *core.Logger // nil unless Mode is RapiLog or RapiLogReplica
	Obs        *obs.Obs     // shared by every layer of the deployment

	// Replication state (Mode == RapiLogReplica only). The fabric and the
	// standbys model remote machines: they are built once and survive the
	// primary's power cycles; the shipper belongs to the primary's
	// hypervisor and is rebuilt — under a new epoch — with each logger.
	Fabric            *netsim.Fabric
	Standbys          []*replica.Standby
	Shipper           *replica.Shipper
	epoch             int
	LastReplicaReplay replica.RecoverReport

	// Runtime verification (Config.Flight, or Config.Trace for Monitor
	// alone). The monitor re-checks the safety invariants online against the
	// live event stream; the flight recorder freezes a post-mortem at the
	// first catastrophic trigger.
	Monitor *obs.Monitor
	Flight  *obs.FlightRecorder
}

// New builds a deployment. In RapiLog mode the hypervisor and the RapiLog
// device are created as part of "platform firmware" — before any guest
// runs, as on the real system.
func New(cfg Config) (*Rig, error) {
	cfg.applyDefaults()
	s := sim.New(cfg.Seed)
	o := obs.New(obs.Config{TraceEnabled: cfg.Trace || cfg.Flight, TraceCapacity: cfg.TraceCapacity})
	m := power.NewMachine(s, "machine", cfg.Cores, cfg.PSU)
	m.SetObs(o)
	return newOnSubstrate(cfg, s, m, o)
}

// Close ends the deployment's simulation and releases every process it
// still holds (sim.Sim.Close). Call it when the run is over and its results
// have been read; a rig built by NewSharded or NewCluster is closed through
// its owner.
func (r *Rig) Close() { r.S.Close() }

// newOnSubstrate builds a deployment's storage and platform stack on an
// existing simulation/machine/observability substrate. New calls it with a
// substrate of its own; NewSharded calls it once per shard with the shared
// machine, a per-shard Obs view (metrics land under "shard.<i>.*"), and a
// per-shard name prefix so every shard gets its own disks, partitions,
// dump zone, guest and (in replicated modes) fabric + standby fleet.
func newOnSubstrate(cfg Config, s *sim.Sim, m *power.Machine, o *obs.Obs) (*Rig, error) {
	mkDisk := func(name string, kind DiskKind) (disk.Device, error) {
		switch kind {
		case DiskHDD:
			hc := cfg.HDD
			if hc.Name == "" {
				hc.Name = name
			}
			hc.Reg = o.Registry()
			return disk.NewHDD(s, m.HardwareDomain(), hc), nil
		case DiskSSD:
			sc := cfg.SSD
			if sc.Name == "" {
				sc.Name = name
			}
			sc.Reg = o.Registry()
			return disk.NewSSD(s, m.HardwareDomain(), sc), nil
		case DiskMem:
			return disk.NewMem(s, disk.MemConfig{Name: name, Persistent: true, Capacity: 1 << 22, Reg: o.Registry()}), nil
		default:
			return nil, fmt.Errorf("rig: unknown disk kind %q", kind)
		}
	}
	dev, err := mkDisk("disk0", cfg.Disk)
	if err != nil {
		return nil, err
	}
	m.AttachDevice(dev)
	logDev := dev
	dataStart := cfg.LogSectors + cfg.DumpSectors
	if cfg.DedicatedLogDisk || (cfg.LogDiskKind != "" && cfg.LogDiskKind != cfg.Disk) {
		logKind := cfg.Disk
		if cfg.LogDiskKind != "" {
			logKind = cfg.LogDiskKind
		}
		logDev, err = mkDisk("disk1-log", logKind)
		if err != nil {
			return nil, err
		}
		m.AttachDevice(logDev)
		dataStart = 0
	}

	logPart, err := disk.NewPartition(logDev, "log", 0, cfg.LogSectors)
	if err != nil {
		return nil, err
	}
	dumpPart, err := disk.NewPartition(logDev, "dump", cfg.LogSectors, cfg.DumpSectors)
	if err != nil {
		return nil, err
	}
	dataPart, err := disk.NewPartition(dev, "data", dataStart, dev.Sectors()-dataStart)
	if err != nil {
		return nil, err
	}

	r := &Rig{
		Cfg: cfg, S: s, Machine: m, Disk: dev,
		LogPart: logPart, DumpPart: dumpPart, DataPart: dataPart,
		Obs: o,
	}
	r.LogDev = logPart
	if cfg.LogFault.Enabled {
		fc := cfg.LogFault
		fc.Reg = o.Registry()
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed + 1
		}
		r.FaultyLog = disk.NewFaulty(logPart, fc)
		r.LogDev = r.FaultyLog
	}
	r.DumpDev = dumpPart
	if cfg.DumpFault.Enabled {
		fc := cfg.DumpFault
		fc.Reg = o.Registry()
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed + 3
		}
		r.FaultyDump = disk.NewFaulty(dumpPart, fc)
		r.DumpDev = r.FaultyDump
	}
	if cfg.Mode.Replicated() {
		if k := cfg.AckPolicy.K; k > cfg.Replicas {
			return nil, fmt.Errorf("rig: ack policy %v needs %d replicas, have %d", cfg.AckPolicy, k, cfg.Replicas)
		}
		if cfg.extFabric != nil {
			// A cluster node rig ships to the cluster's shared peer stores
			// over the shared fabric; it owns neither.
			r.Fabric = cfg.extFabric
			r.Standbys = cfg.extStandbys
		} else {
			r.Fabric = netsim.New(s, netsim.Config{Seed: cfg.NetSeed, Link: cfg.Net, Reg: o.Registry(), Trace: o.Tracer()})
			rc := cfg.Replica
			rc.PrimaryName = cfg.primary()
			rc.Reg = o.Registry()
			rc.SectorSize = r.LogDev.SectorSize()
			rc.Trace = o.Tracer()
			for i := 0; i < cfg.Replicas; i++ {
				// Endpoint names are scoped to this rig's private fabric, so no
				// prefix is needed for uniqueness — just for trace readability.
				r.Standbys = append(r.Standbys, replica.NewStandby(s, r.Fabric, fmt.Sprintf("standby%d", i), rc))
			}
		}
	}
	r.epoch = cfg.startEpoch
	if cfg.deferPlatform {
		return r, nil
	}
	if err := r.assemblePlatform(); err != nil {
		return nil, err
	}
	r.setupVerification()
	return r, nil
}

// setupVerification arms the online invariant monitor (whenever tracing is
// on) and the flight recorder (Config.Flight): the monitor consumes every
// trace event as the tracer's observer, and the recorder freezes at the
// first power loss, degrade entry, or invariant violation.
func (r *Rig) setupVerification() {
	tr := r.Obs.Tracer()
	if !tr.Enabled() {
		return
	}
	// Shards share one tracer, whose single observer slot can't feed N
	// per-shard monitors; sharded deployments check the safety invariant
	// per shard through SafeBound + dump accounting instead.
	if r.Cfg.sharers > 1 {
		return
	}
	mc := obs.MonitorConfig{
		Bound: r.SafeBound(),
		Reg:   r.Obs.Registry(),
		Trace: tr,
	}
	switch r.Cfg.AckPolicy.Kind {
	case core.AckKindQuorum:
		mc.Policy, mc.QuorumK = obs.PolicyQuorum, r.Cfg.AckPolicy.K
	case core.AckKindRemoteOnly:
		mc.Policy, mc.QuorumK = obs.PolicyRemoteOnly, r.Cfg.AckPolicy.K
		// The emergency dump is disabled by design, so exposure is bounded
		// by the configured buffer alone, not the dumpable window.
		if r.Logger != nil {
			mc.Bound = r.Logger.MaxBuffer()
		}
	}
	if r.Cfg.Mode.Replicated() {
		rc := r.Cfg.Replica
		mc.RetainLimit = rc.RetainLimit
		if mc.RetainLimit == 0 {
			mc.RetainLimit = 64 << 20 // replica.Config's own default
		}
		dead, probe := rc.DeadAfter, rc.RetransmitEvery
		if dead == 0 {
			dead = 500 * time.Millisecond
		}
		if probe == 0 {
			probe = 10 * time.Millisecond
		}
		// Eviction legitimately takes an ack-stall window plus a couple of
		// probe rounds; only beyond that is high retention a violation.
		mc.RetainGrace = dead + 2*probe
	}
	r.Monitor = obs.NewMonitor(mc)
	if !r.Cfg.Flight {
		tr.SetObserver(r.Monitor.Consume)
		return
	}
	r.Flight = obs.NewFlightRecorder(r.Obs, r.Monitor, obs.FlightConfig{SnapEvery: r.Cfg.FlightSnapEvery})
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
			p.Sleep(fl.SnapEvery())
			fl.Snap(p.Now().Duration())
		}
	})
}

// assemblePlatform builds (or rebuilds, after a power cycle) the platform
// layer: hypervisor + RapiLog device + guest, or the native OS domain.
func (r *Rig) assemblePlatform() error {
	cfg := r.Cfg
	switch cfg.Mode {
	case NativeSync, NativeAsync:
		if r.Plat == nil {
			r.Plat = hv.NewNative(r.Machine, r.LogDev, r.DataPart)
		}
		return nil
	case VirtSync:
		if r.HV == nil {
			hvCfg := cfg.HV
			hvCfg.Obs = r.Obs
			r.HV = hv.New(r.Machine, hvCfg)
		}
		if r.Plat == nil {
			r.Plat = r.HV.NewGuest(cfg.namePrefix+"db", r.LogDev, r.DataPart)
		}
		return nil
	case RapiLog, RapiLogReplica:
		if r.HV == nil {
			// A sharded deployment runs every shard's guest under the one
			// hypervisor the machine actually has; standalone rigs build
			// their own.
			r.HV = cfg.sharedHV
		}
		if r.HV == nil {
			hvCfg := cfg.HV
			hvCfg.Obs = r.Obs
			r.HV = hv.New(r.Machine, hvCfg)
		}
		rlCfg := cfg.RapiLog
		rlCfg.Obs = r.Obs
		if cfg.sharers > 1 && rlCfg.MaxBuffer == 0 {
			// N shards dump concurrently into the same hold-up window: size
			// each buffer by the shared budget, not the whole one. (Metric
			// names stay identical across shards — "rapilog.*" under each
			// shard's Obs view — so fleet roll-ups can match by suffix.)
			shared := core.SafeBufferSizeShared(r.Machine, r.DumpPart, cfg.sharers)
			if shared <= 0 {
				return fmt.Errorf("rig: no safe per-shard buffer for %d sharers on this PSU", cfg.sharers)
			}
			rlCfg.MaxBuffer = shared
		}
		if cfg.Mode.Replicated() {
			// A new power epoch gets a new shipper: the stream restarts at
			// seq 1 under the next epoch number and the standbys keep both
			// (recovery replays epochs in order). The ack/probe daemons run
			// in the hypervisor domain, dying with the machine like the
			// drain does.
			r.epoch++
			names := make([]string, len(r.Standbys))
			for i, st := range r.Standbys {
				names[i] = st.Name()
			}
			rc := cfg.Replica
			rc.PrimaryName = cfg.primary()
			rc.Reg = r.Obs.Registry()
			rc.SectorSize = r.LogDev.SectorSize()
			rc.Trace = r.Obs.Tracer()
			if cfg.AckPolicy.Remote() {
				rc.TraceQuorumK = cfg.AckPolicy.K
			} else {
				// No quorum barrier on the ack path, but the trace still
				// marks first-copy coverage so lag is visible.
				rc.TraceQuorumK = 1
			}
			r.Shipper = replica.NewShipper(r.S, r.Fabric, r.HV.Domain(), r.epoch, names, rc)
			rlCfg.Replicator = r.Shipper
			rlCfg.Policy = cfg.AckPolicy
		}
		logger, err := core.NewLogger(r.Machine, r.HV.Domain(), r.LogDev, r.DumpDev, rlCfg)
		if err != nil {
			return err
		}
		r.Logger = logger
		if r.Plat == nil {
			r.Plat = r.HV.NewGuest(cfg.namePrefix+"db", logger, r.DataPart)
		} else if g, ok := r.Plat.(*hv.Guest); ok {
			g.SetLogBacking(logger)
		}
		return nil
	default:
		return fmt.Errorf("rig: unknown mode %q", cfg.Mode)
	}
}

// EngineConfig returns the engine configuration the rig's mode implies.
func (r *Rig) EngineConfig() engine.Config {
	return engine.Config{
		Personality:     r.Cfg.Personality,
		CommitMode:      r.Cfg.Mode.CommitMode(),
		CheckpointEvery: r.Cfg.CheckpointEvery,
		LockTimeout:     r.Cfg.LockTimeout,
		NoDaemons:       r.Cfg.NoDaemons,
		Obs:             r.Obs,
	}
}

// SafeBound returns the provable exposure limit for this deployment: the
// lesser of the configured buffer bound and SafeBufferSize — the N-sharer
// variant when this rig is one shard of a sharded deployment, since all N
// dumps share the hold-up window. Zero outside RapiLog mode (nothing is
// ever exposed).
func (r *Rig) SafeBound() int64 {
	if r.Logger == nil {
		return 0
	}
	sharers := r.Cfg.sharers
	if sharers < 1 {
		sharers = 1
	}
	bound := r.Logger.MaxBuffer()
	if safe := core.SafeBufferSizeShared(r.Machine, r.DumpPart, sharers); safe < bound {
		bound = safe
	}
	return bound
}

// AuditExposure replays the rig's trace into the durability-exposure report:
// the time-series of acknowledged-but-undrained bytes, per-write ack→durable
// latency, and the peak-vs-bound verdict. Requires Config.Trace.
func (r *Rig) AuditExposure() (obs.ExposureReport, error) {
	tr := r.Obs.Tracer()
	if !tr.Enabled() {
		return obs.ExposureReport{}, fmt.Errorf("rig: exposure audit needs tracing (set Config.Trace)")
	}
	return obs.AuditExposure(tr.Events(), r.SafeBound(), tr.Dropped() > 0), nil
}

// Boot opens the engine (running recovery if the devices hold prior state).
// In RapiLog mode the dump-zone replay — hypervisor firmware work — has
// already happened if RecoverAfterPower was used; first boots find nothing
// to replay.
func (r *Rig) Boot(p *sim.Proc) (*engine.Engine, error) {
	return engine.Open(p, r.Plat, r.EngineConfig())
}

// CrashOS kills the software stack the DBMS runs on: the guest VM in
// virtualised modes (the hypervisor survives), or the whole OS natively.
func (r *Rig) CrashOS() { r.Plat.Crash() }

// RebootAfterCrash revives the platform domain so Boot can run recovery.
// In RapiLog mode the hypervisor — and the logger's buffered data — were
// never lost; the same logger keeps serving the rebooted guest.
func (r *Rig) RebootAfterCrash() { r.Plat.Reboot() }

// CutPower starts a mains-loss event (the plug-pull). Returns the sampled
// hold-up. Everything on the machine dies when the window closes.
func (r *Rig) CutPower() time.Duration { return r.Machine.CutPower() }

// RecoverAfterPower restores power and rebuilds the platform stack,
// replaying the RapiLog dump zone into the log partition before the guest
// boots — exactly the order the real system recovers in. Call Boot next.
func (r *Rig) RecoverAfterPower(p *sim.Proc) (core.RecoveryReport, error) {
	r.Machine.RestorePower()
	if r.HV != nil {
		r.HV.Reboot()
	}
	return r.recoverLogDomain(p)
}

// recoverLogDomain is the per-log-domain half of RecoverAfterPower: with
// power already restored and the hypervisor rebooted, it replays this rig's
// dump zone (and replica stream, when the policy calls for it) and rebuilds
// its platform. A sharded deployment runs it once per shard, in parallel —
// each shard's replay touches only that shard's spindle.
func (r *Rig) recoverLogDomain(p *sim.Proc) (core.RecoveryReport, error) {
	var rep core.RecoveryReport
	r.Plat.Reboot()
	if r.Cfg.Mode == RapiLog || r.Cfg.Mode.Replicated() {
		var err error
		if r.Cfg.Mode.Replicated() {
			rep, err = r.replicatedRecover(p)
		} else {
			rep, err = core.Recover(p, r.LogDev, r.DumpDev)
		}
		if err != nil {
			return rep, err
		}
		// Carry the dying epoch's dump-path counters into the report before
		// the logger is rebuilt: HadDump=false plus DumpFailures>0 is how an
		// audit tells "the dump write failed" from "nothing was buffered".
		if r.Logger != nil {
			st := r.Logger.RapiStats()
			rep.DumpRetries = int(st.DumpRetries.Value())
			rep.DumpFailures = int(st.DumpFailures.Value())
		}
		// A fresh logger for the new power epoch.
		if err := r.assemblePlatform(); err != nil {
			return rep, err
		}
	}
	// The flight recorder froze when DC died; hand the black box to the
	// caller alongside the replay summary.
	rep.Flight = r.Flight.Record()
	return rep, nil
}

// replicatedRecover merges the two durability domains at boot. The local
// domain — drained sectors on the log partition plus the dump zone's
// snapshot of what was still buffered — is authoritative wherever it is
// complete: it holds the newest version of every sector, while a standby
// that lagged (a partition, a crash) holds stale images of sectors the
// drain has since rewritten, and folding those over the log would roll
// acked, locally durable commits back to pre-partition contents. Replica
// records are therefore replayed only when the ack policy actually makes
// the standbys the durability domain for bytes the local domain lost:
//
//   - AckRemoteOnly: always. The dump is disabled by design, so the
//     standbys are the only copy of everything still buffered at the cut.
//   - AckQuorum: only when the dump cannot account for the buffer — a torn
//     image, a failed dump write, an unreadable zone. Any rollback this
//     replay inflicts is bounded to unacknowledged writes: a commit was
//     acked only after k standbys held its bytes, so the surviving
//     standbys' prefixes cover every acked sector state.
//   - AckLocal: never. Acks are not gated on the standbys, so a lagging
//     standby can sit arbitrarily far behind the ack frontier and there is
//     no per-sector version metadata to merge against; replaying could
//     only trade acked local durability for stale remote bytes. (The
//     stream still feeds lag reporting and warm standbys under AckLocal —
//     it just is not a recovery source.)
//
// When both sources replay, replica records land first and the dump's
// intact entries second: the dump snapshotted the newest buffered version
// of everything it covers, so it must win on overlap.
func (r *Rig) replicatedRecover(p *sim.Proc) (core.RecoveryReport, error) {
	r.LastReplicaReplay = replica.RecoverReport{}
	d, derr := core.ReadDump(p, r.DumpDev)
	rep := core.RecoveryReport{HadDump: d.HadDump, Torn: d.Torn}

	dumpFailed := false
	if r.Logger != nil {
		dumpFailed = r.Logger.RapiStats().DumpFailures.Value() > 0
	}
	// The local domain is complete when the dump image accounts for the
	// whole buffer — or when there was provably nothing buffered to dump.
	localComplete := derr == nil && (d.Complete() || (!d.HadDump && !dumpFailed))
	needReplica := false
	switch r.Cfg.AckPolicy.Kind {
	case core.AckKindRemoteOnly:
		needReplica = true
	case core.AckKindQuorum:
		needReplica = !localComplete
	}
	if derr != nil && !needReplica {
		return rep, derr
	}
	if needReplica {
		rr, err := replica.Recover(p, r.Standbys, r.LogDev)
		if err != nil {
			return rep, err
		}
		r.LastReplicaReplay = rr
	}
	if derr == nil && d.HadDump {
		var err error
		rep.Entries, rep.Bytes, err = d.Replay(p, r.LogDev)
		if err != nil {
			return rep, err
		}
		if err := core.InvalidateDump(p, r.DumpDev); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
