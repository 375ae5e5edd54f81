package rig

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Sharded is a scale-out deployment: N fully independent RapiLog instances
// on one machine, each with its own disk, log partition, drain daemon and
// emergency-dump zone (and fabric + standby fleet when replicated), behind
// a key-hash router. The shards share the simulation kernel, the power
// supply — so each shard's buffer is sized by the N-sharer hold-up budget —
// and the one hypervisor, under which every shard runs its own guest.
type Sharded struct {
	Cfg     Config
	N       int
	S       *sim.Sim
	Machine *power.Machine
	HV      *hv.Hypervisor
	Obs     *obs.Obs // root bundle; shard i's instruments live under "shard.<i>.*"
	Router  *shard.Router
	Shards  []*Rig
}

// NewSharded builds an n-shard deployment. cfg describes one shard (disk
// kind, PSU, RapiLog knobs, replication…) and is cloned per shard with a
// distinct derived seed, name prefix and metrics namespace; Mode is the
// per-shard mode: RapiLog (or empty), or RapiLogReplica to give every shard
// its own standby fleet.
func NewSharded(cfg Config, n int) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("rig: sharded deployment needs at least 1 shard, got %d", n)
	}
	cfg.applyDefaults()
	if cfg.Mode != RapiLog && cfg.Mode != RapiLogReplica {
		return nil, fmt.Errorf("rig: mode %q cannot be sharded (no log device to partition)", cfg.Mode)
	}

	s := sim.New(cfg.Seed)
	o := obs.New(obs.Config{TraceEnabled: cfg.Trace || cfg.Flight, TraceCapacity: cfg.TraceCapacity})
	m := power.NewMachine(s, "machine", cfg.Cores, cfg.PSU)
	m.SetObs(o)
	hvCfg := cfg.HV
	hvCfg.Obs = o
	hyp := hv.New(m, hvCfg)

	sh := &Sharded{
		Cfg: cfg, N: n, S: s, Machine: m, HV: hyp, Obs: o,
		Router: shard.NewRouter(n),
	}
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.namePrefix = fmt.Sprintf("shard%d.", i)
		scfg.sharers = n
		scfg.sharedHV = hyp
		// Decorrelate the derived fault and fabric seeds: two shards with
		// the same media-fault schedule would make "independent domains"
		// fail together.
		scfg.Seed = cfg.Seed + int64(i+1)*7919
		scfg.NetSeed = 0
		scfg.applyDefaults()
		r, err := newOnSubstrate(scfg, s, m, o.Sub(shard.Prefix(i)))
		if err != nil {
			return nil, fmt.Errorf("rig: shard %d: %w", i, err)
		}
		sh.Shards = append(sh.Shards, r)
	}
	return sh, nil
}

// Close ends the fleet's shared simulation (sim.Sim.Close).
func (sh *Sharded) Close() { sh.S.Close() }

// ShardFor returns the shard that owns a transaction key.
func (sh *Sharded) ShardFor(key string) int { return sh.Router.ShardFor(key) }

// SafeBound returns shard i's provable exposure limit — already N-aware,
// since every shard was sized against the shared hold-up budget.
func (sh *Sharded) SafeBound(i int) int64 { return sh.Shards[i].SafeBound() }

// BootAll opens every shard's engine, in shard order. The engines index by
// shard: route a transaction with ShardFor and run it on engines[i].
func (sh *Sharded) BootAll(p *sim.Proc) ([]*engine.Engine, error) {
	engines := make([]*engine.Engine, sh.N)
	for i, r := range sh.Shards {
		e, err := r.Boot(p)
		if err != nil {
			return nil, fmt.Errorf("rig: shard %d boot: %w", i, err)
		}
		engines[i] = e
	}
	return engines, nil
}

// CutPower starts a mains-loss event for the whole machine: every shard's
// power-fail handler fires and dumps to its own spindle inside the one
// shared hold-up window. Returns the sampled hold-up.
func (sh *Sharded) CutPower() time.Duration { return sh.Machine.CutPower() }

// RecoverAfterPower restores power, reboots the shared hypervisor once,
// then recovers every shard in parallel — each replay only touches that
// shard's spindle, so the fleet recovers in roughly the time of its slowest
// shard rather than the sum. Returns the merged per-shard report.
func (sh *Sharded) RecoverAfterPower(p *sim.Proc) (shard.Recovery, error) {
	sh.Machine.RestorePower()
	sh.HV.Reboot()
	rep := shard.Recovery{Shards: make([]core.RecoveryReport, sh.N)}
	errs := make([]error, sh.N)
	remaining := sh.N
	done := sh.S.NewSignal("sharded.recover.done")
	for i, r := range sh.Shards {
		i, r := i, r
		sh.S.Spawn(nil, fmt.Sprintf("shard%d.recover", i), func(pp *sim.Proc) {
			rep.Shards[i], errs[i] = r.recoverLogDomain(pp)
			remaining--
			done.Broadcast()
		})
	}
	for remaining > 0 {
		done.Wait(p)
	}
	for i, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("rig: shard %d recovery: %w", i, err)
		}
	}
	return rep, nil
}
