package rig

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
)

// site says where a log domain lives: everything about it that the topology
// around it decides, not the deployment Config.
type site struct {
	// prefix names the domain's guest among the machine's ("" on the paper's
	// machine, "shard<i>." on a sharded one, "node<i>." in a cluster).
	prefix string
	// seedOffset is added to Config.Seed wherever the domain derives a
	// private fault generator.
	seedOffset int64
	// sharers is how many log domains dump into the machine's one hold-up
	// window; it feeds the buffer sizing rule (core.SafeBufferSize).
	sharers int
	// endpoint is the shipper's name on the replication fabric.
	endpoint string
	// fabric and stores graft the domain onto a cluster's shared fabric and
	// peer stores; a nil fabric means "build a private fleet".
	fabric *netsim.Fabric
	stores []*replica.Standby
	// epoch is the replication epoch the domain starts after: a promoted
	// node continues the cluster's monotone sequence.
	epoch int
}

// LogDomain is one independent commit stream on a machine: its disks and
// partitions, the guest its DBMS runs in, and — in RapiLog mode — its
// logger, dump zone and replication fleet.
type LogDomain struct {
	m  *Rig
	at site

	Disk     disk.Drive
	LogPart  *disk.Partition
	DumpPart *disk.Partition
	DataPart *disk.Partition
	// LogDev is what the platform's log path actually consumes: LogPart,
	// wrapped by FaultyLog when Config.LogFault is enabled.
	LogDev    disk.Device
	FaultyLog *disk.Faulty // nil unless Config.LogFault.Enabled
	// DumpDev is what the emergency dump actually writes to (and recovery
	// reads from): DumpPart, wrapped by FaultyDump when Config.DumpFault
	// is enabled.
	DumpDev    disk.Device
	FaultyDump *disk.Faulty // nil unless Config.DumpFault.Enabled
	Plat       hv.Platform
	Logger     *core.Logger // nil unless Mode is RapiLog
	// Obs is the view this domain's instruments register under: the
	// machine's root bundle, or its "shard.<i>" sub-view.
	Obs *obs.Obs

	// Replication state (Config.Replicas > 0 only). The fabric and the
	// standbys model remote machines: they are built once and survive the
	// primary's power cycles; the shipper belongs to the primary's
	// hypervisor and is rebuilt — under a new epoch — with each logger.
	Fabric            *netsim.Fabric
	Standbys          []*replica.Standby
	Shipper           *replica.Shipper
	epoch             int
	LastReplicaReplay replica.RecoverReport
}

// newLogDomain builds a log domain's storage — disks, partitions, fault
// wrappers and, when replicated, its fleet — on machine r, registering its
// instruments on o, and appends it to r.Domains. The platform on top is
// assemblePlatform's: a promoted cluster node replays the replicated prefix
// into the log partition in between.
func (r *Rig) newLogDomain(o *obs.Obs, at site) (*LogDomain, error) {
	cfg, s, m := r.Cfg, r.S, r.Machine
	seed := cfg.Seed + at.seedOffset
	mkDisk := func(name string, kind DiskKind) (disk.Drive, error) {
		switch kind {
		case DiskHDD:
			hc := cfg.HDD
			if hc.Name == "" {
				hc.Name = name
			}
			hc.Reg = o.Registry()
			return disk.NewHDD(s, m.HardwareDomain(), hc), nil
		case DiskSSD:
			return disk.NewSSD(s, disk.SSDConfig{Name: name, Reg: o.Registry()}), nil
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
	dataStart := int64(logSectors + dumpSectors)
	if cfg.LogDiskKind != "" {
		logDev, err = mkDisk("disk1-log", cfg.LogDiskKind)
		if err != nil {
			return nil, err
		}
		m.AttachDevice(logDev)
		dataStart = 0
	}

	logPart, err := disk.NewPartition(logDev, "log", 0, logSectors)
	if err != nil {
		return nil, err
	}
	dumpPart, err := disk.NewDumpZone(logDev, "dump", logSectors, dumpSectors)
	if err != nil {
		return nil, err
	}
	dataPart, err := disk.NewPartition(dev, "data", dataStart, dev.Sectors()-dataStart)
	if err != nil {
		return nil, err
	}

	d := &LogDomain{
		m: r, at: at, Disk: dev,
		LogPart: logPart, DumpPart: dumpPart, DataPart: dataPart,
		Obs: o, epoch: at.epoch,
	}
	d.LogDev = logPart
	if cfg.LogFault.Enabled {
		fc := cfg.LogFault
		fc.Reg = o.Registry()
		if fc.Seed == 0 {
			fc.Seed = seed + 1
		}
		d.FaultyLog = disk.NewFaulty(logPart, fc)
		d.LogDev = d.FaultyLog
	}
	d.DumpDev = dumpPart
	if cfg.DumpFault.Enabled {
		fc := cfg.DumpFault
		fc.Reg = o.Registry()
		if fc.Seed == 0 {
			fc.Seed = seed + 3
		}
		d.FaultyDump = disk.NewFaulty(dumpPart, fc)
		d.DumpDev = d.FaultyDump
	}
	if cfg.Replicas > 0 {
		if at.fabric != nil {
			// A cluster node ships to the cluster's shared peer stores over
			// the shared fabric; it owns neither.
			d.Fabric = at.fabric
			d.Standbys = at.stores
		} else {
			d.Fabric = netsim.New(s, netsim.Config{Seed: seed + fabricSeedOffset, Link: cfg.Net, Reg: o.Registry(), Trace: o.Tracer()})
			rc := d.replicaConfig()
			for i := 0; i < cfg.Replicas; i++ {
				// Endpoint names are scoped to this domain's private fabric, so no
				// prefix is needed for uniqueness — just for trace readability.
				d.Standbys = append(d.Standbys, replica.NewStandby(s, d.Fabric, fmt.Sprintf("standby%d", i), rc))
			}
		}
	}
	r.Domains = append(r.Domains, d)
	r.LogDomain = r.Domains[0]
	return d, nil
}

// replicaConfig is the protocol configuration the domain's shipper and its
// private standbys share.
func (d *LogDomain) replicaConfig() replica.Config {
	return replica.Config{
		PrimaryName: d.at.endpoint,
		Reg:         d.Obs.Registry(),
		Trace:       d.Obs.Tracer(),
	}
}

// assemblePlatform builds (or rebuilds, after a power cycle) the domain's
// platform layer: RapiLog device + guest under the machine's hypervisor, or
// the native OS domain.
func (d *LogDomain) assemblePlatform() error {
	cfg, m, hyp := d.m.Cfg, d.m.Machine, d.m.HV
	switch cfg.Mode {
	case NativeSync, NativeAsync:
		if d.Plat == nil {
			d.Plat = hv.NewNative(m, d.LogDev, d.DataPart)
		}
		return nil
	case VirtSync:
		if d.Plat == nil {
			d.Plat = hyp.NewGuest(d.at.prefix+"db", d.LogDev, d.DataPart)
		}
		return nil
	}
	// RapiLog, the one mode Normalize leaves.
	rlCfg := cfg.RapiLog
	rlCfg.Obs = d.Obs
	if cfg.Replicas > 0 {
		// A new power epoch gets a new shipper: the stream restarts at seq 1
		// under the next epoch number and the standbys keep both (recovery
		// replays epochs in order). The ack/probe daemons run in the
		// hypervisor domain, dying with the machine like the drain does.
		d.epoch++
		names := make([]string, len(d.Standbys))
		for i, st := range d.Standbys {
			names[i] = st.Name()
		}
		rc := d.replicaConfig()
		// Local acks wait on no quorum, but the trace still marks first-copy
		// coverage so lag is visible.
		rc.TraceQuorumK = 1
		if cfg.AckPolicy.Remote() {
			rc.TraceQuorumK = cfg.AckPolicy.K
		}
		d.Shipper = replica.NewShipper(d.m.S, d.Fabric, hyp.Domain(), d.epoch, names, rc)
		rlCfg.Replicator = d.Shipper
		rlCfg.Policy = cfg.AckPolicy
	}
	// N shards dump concurrently into the same hold-up window, so each
	// buffer is sized by the shared budget, not the whole one.
	safe := core.SafeBufferSize(m, d.DumpPart, d.at.sharers)
	logger, err := core.NewLogger(m, hyp.Domain(), d.LogDev, d.DumpDev, safe, rlCfg)
	if errors.Is(err, core.ErrNoSafeBuffer) && d.at.sharers > 1 {
		return fmt.Errorf("rig: no safe per-shard buffer for %d sharers on this PSU", d.at.sharers)
	}
	if err != nil {
		return err
	}
	d.Logger = logger
	if d.Plat == nil {
		d.Plat = hyp.NewGuest(d.at.prefix+"db", logger, d.DataPart)
	} else if g, ok := d.Plat.(*hv.Guest); ok {
		g.SetLogBacking(logger)
	}
	return nil
}

// EngineConfig returns the engine configuration the machine's mode implies.
func (d *LogDomain) EngineConfig() engine.Config {
	return engine.Config{
		Personality:     d.m.Cfg.Personality,
		CommitMode:      d.m.Cfg.Mode.CommitMode(),
		CheckpointEvery: d.m.Cfg.CheckpointEvery,
		NoDaemons:       d.m.Cfg.NoDaemons,
		Obs:             d.Obs,
	}
}

// SafeBound returns the provable exposure limit for this domain: its
// logger's (core.Logger.SafeBound). Zero outside RapiLog mode (nothing is
// ever exposed).
func (d *LogDomain) SafeBound() int64 {
	if d.Logger == nil {
		return 0
	}
	return d.Logger.SafeBound()
}

// Boot opens the engine (running recovery if the devices hold prior state).
// In RapiLog mode the dump-zone replay — hypervisor firmware work — has
// already happened if RecoverAfterPower was used; first boots find nothing
// to replay.
func (d *LogDomain) Boot(p *sim.Proc) (*engine.Engine, error) {
	return engine.Open(p, d.Plat, d.EngineConfig())
}

// CrashOS kills the software stack the DBMS runs on: the guest VM in
// virtualised modes (the hypervisor survives), or the whole OS natively.
func (d *LogDomain) CrashOS() { d.Plat.Crash() }

// RebootAfterCrash revives the platform domain so Boot can run recovery.
// In RapiLog mode the hypervisor — and the logger's buffered data — were
// never lost; the same logger keeps serving the rebooted guest.
func (d *LogDomain) RebootAfterCrash() { d.Plat.Reboot() }

// recover is the per-domain half of RecoverAfterPower: with power already
// restored and the hypervisor rebooted, it runs the dying logger's dump
// recovery (core.Logger.Recover, which decides whether the standbys are
// replayed) and rebuilds the domain's platform for the new power epoch.
func (d *LogDomain) recover(p *sim.Proc) (core.RecoveryReport, error) {
	d.Plat.Reboot()
	if d.Logger == nil {
		return core.RecoveryReport{}, nil // no RapiLog device: nothing to replay
	}
	d.LastReplicaReplay = replica.RecoverReport{}
	rep, err := d.Logger.Recover(p, func(p *sim.Proc) error {
		rr, err := replica.Recover(p, d.Standbys, d.LogDev, nil)
		if err == nil {
			d.LastReplicaReplay = rr
		}
		return err
	})
	if err != nil {
		return rep, err
	}
	// A fresh logger for the new power epoch.
	return rep, d.assemblePlatform()
}
