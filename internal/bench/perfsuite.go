// Perf suite: the fixed hot-path benchmark trajectory this repository
// holds itself accountable to. Unlike the experiments (which reproduce the
// paper's tables on virtual time), the perf suite measures the *simulator
// itself* — nanoseconds, allocations, and simulated events per wall-clock
// second on the commit path — and serialises the results as JSON so each
// perf-focused PR can commit a before/after BENCH_<date>.json pair.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rig"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PerfCase is one measured hot-path microbenchmark or workload run.
type PerfCase struct {
	Name string `json:"name"`
	// Micro-benchmark figures (testing.Benchmark).
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	// Simulator throughput: kernel events executed per wall-clock second
	// while this case ran.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Workload figures (virtual-time runs).
	VirtualTPS  float64 `json:"virtual_tps,omitempty"`
	Committed   int64   `json:"committed,omitempty"`
	AllocsPerTx float64 `json:"allocs_per_tx,omitempty"`
	// Replicated-path figures (commit_quorum1, ship_throughput).
	QuorumP50Ns      float64 `json:"quorum_p50_ns,omitempty"`       // quorum-wait barrier p50
	NetMsgsPerRecord float64 `json:"net_msgs_per_record,omitempty"` // fabric messages per shipped record
	// Sharded-scaling figures (shard_scaling_N): the shard count and the
	// fleet-wide commit-ack p50 (per-shard histograms merged).
	Shards      int     `json:"shards,omitempty"`
	CommitP50Ns float64 `json:"commit_p50_ns,omitempty"`
	// Failover figure (failover_takeover): the client-visible takeover
	// window in virtual time (leader loss → first commit on the promoted
	// leader).
	TakeoverNs float64 `json:"takeover_ns,omitempty"`
}

// PerfSuite is the serialised result of one suite run.
type PerfSuite struct {
	Date  string     `json:"date"`
	Label string     `json:"label,omitempty"`
	Go    string     `json:"go"`
	Quick bool       `json:"quick"`
	Seed  int64      `json:"seed"`
	Cases []PerfCase `json:"cases"`
}

// WriteJSON serialises the suite.
func (s *PerfSuite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// RunPerfSuite executes the fixed suite. Quick shrinks the workload runs to
// smoke-test size (CI); the full suite takes tens of seconds.
func RunPerfSuite(label string, quick bool, seed int64, progress io.Writer) (*PerfSuite, error) {
	if seed == 0 {
		seed = 1
	}
	suite := &PerfSuite{
		Date:  time.Now().UTC().Format("2006-01-02"),
		Label: label,
		Go:    runtime.Version(),
		Quick: quick,
		Seed:  seed,
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}

	type microCase struct {
		name string
		run  func() (PerfCase, error)
	}
	dur, warmup := 4*time.Second, 500*time.Millisecond
	if quick {
		dur, warmup = 500*time.Millisecond, 50*time.Millisecond
	}
	cases := []microCase{
		{"sim_sleep_wake", func() (PerfCase, error) { return perfSleepWake(seed) }},
		{"logger_write_4k", func() (PerfCase, error) { return perfLoggerWrite(seed, false) }},
		{"logger_write_absorb", func() (PerfCase, error) { return perfLoggerWrite(seed, true) }},
		{"commit_rapilog", func() (PerfCase, error) { return perfCommit(seed, rig.Config{Mode: rig.RapiLog}) }},
		{"commit_native_sync", func() (PerfCase, error) { return perfCommit(seed, rig.Config{Mode: rig.NativeSync}) }},
		{"commit_quorum1", func() (PerfCase, error) {
			return perfCommit(seed, rig.Config{Mode: rig.RapiLogReplica, AckPolicy: core.AckQuorum(1)})
		}},
		{"ship_throughput", func() (PerfCase, error) { return perfShipThroughput(seed) }},
		{"tpcb_c8", func() (PerfCase, error) {
			return perfWorkload("tpcb_c8", &workload.TPCB{}, 8, dur, warmup, seed)
		}},
		{"tpcc_c8", func() (PerfCase, error) {
			return perfWorkload("tpcc_c8", &workload.TPCC{Warehouses: 1, Customers: 10, Items: 200}, 8, dur, warmup, seed)
		}},
	}
	cases = append(cases, microCase{"failover_takeover", func() (PerfCase, error) {
		return perfFailoverTakeover(seed, quick)
	}})
	// Weak-scaling sweep: per-shard provisioning is constant (4 cores, 4
	// clients, 4 branches per shard), so ideal scaling is tps ∝ shards with
	// a flat commit p50.
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		cases = append(cases, microCase{fmt.Sprintf("shard_scaling_%d", n), func() (PerfCase, error) {
			return perfShardScaling(n, 4, dur, warmup, seed)
		}})
	}
	for _, c := range cases {
		pc, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("perf case %s: %w", c.name, err)
		}
		pc.Name = c.name
		suite.Cases = append(suite.Cases, pc)
		logf("[perf] %-20s %10.0f ns/op  %7.1f allocs/op  %12.0f events/s  %8.0f tps",
			pc.Name, pc.NsPerOp, pc.AllocsPerOp, pc.EventsPerSec, pc.VirtualTPS)
	}
	return suite, nil
}

// timedRun is the measured section of a testing.Benchmark case: the kernel
// events run dispatched on s, and the wall time it took, from the last b.N
// the benchmark settled on.
type timedRun struct {
	events uint64
	wall   time.Duration
}

// measure runs the simulation — already loaded with the processes that
// perform b.N operations — under the benchmark's timer.
func (t *timedRun) measure(b *testing.B, s *sim.Sim, run func() error) error {
	d0 := s.Dispatched()
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	if err := run(); err != nil {
		return err
	}
	t.wall = time.Since(start)
	t.events = s.Dispatched() - d0
	return nil
}

// result converts the testing.BenchmarkResult plus the measured section's
// sim-event counts into a PerfCase.
func (t *timedRun) result(res testing.BenchmarkResult) PerfCase {
	pc := PerfCase{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: float64(res.MemAllocs) / float64(res.N),
		BytesPerOp:  float64(res.MemBytes) / float64(res.N),
	}
	if pc.NsPerOp > 0 {
		pc.OpsPerSec = 1e9 / pc.NsPerOp
	}
	if t.wall > 0 {
		pc.EventsPerSec = float64(t.events) / t.wall.Seconds()
	}
	return pc
}

// perfSleepWake measures the kernel's cheapest blocking round trip: one
// timer schedule, one park, one wake. Two sleepers half a period apart, so
// that each always finds the other due first — one alone would wake in place
// and never park.
func perfSleepWake(seed int64) (PerfCase, error) {
	var t timedRun
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		s := sim.New(seed)
		defer s.Close()
		n := 0
		for _, offset := range []time.Duration{0, time.Microsecond / 2} {
			offset := offset
			s.Spawn(nil, "sleeper", func(p *sim.Proc) {
				p.Sleep(offset)
				for ; n < b.N; n++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		if err := t.measure(b, s, s.Run); err != nil {
			runErr = err
		}
	})
	return t.result(res), runErr
}

// perfLoggerWrite measures one RapiLog buffered write — the fast path every
// commit takes. With absorb set every write hits the same block, exercising
// the in-place absorption path; otherwise writes walk distinct blocks
// (fresh-entry path).
func perfLoggerWrite(seed int64, absorb bool) (PerfCase, error) {
	var t timedRun
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		r, err := rig.New(rig.Config{Seed: seed, Mode: rig.RapiLog, NoDaemons: true})
		if err != nil {
			runErr = err
			return
		}
		defer r.Close()
		data := make([]byte, 4096)
		blocks := r.Logger.Sectors()/8 - 1
		n := 0
		r.S.Spawn(r.Plat.Domain(), "w", func(p *sim.Proc) {
			for ; n < b.N; n++ {
				lba := int64(n) % blocks * 8
				if absorb {
					lba = 0
				}
				if err := r.Logger.Write(p, lba, data, false); err != nil {
					runErr = err
					return
				}
			}
		})
		if err := t.measure(b, r.S, func() error { return r.S.RunFor(1000 * time.Hour) }); err != nil {
			runErr = err
			return
		}
		if n != b.N {
			runErr = fmt.Errorf("completed %d/%d writes", n, b.N)
		}
	})
	return t.result(res), runErr
}

// perfCommit measures a full engine commit (WAL append + force + apply)
// through cfg's log path. On the replicated rig the commit includes the
// quorum ack barrier (ship to the standbys, wait for the policy's cumulative
// acks), and alongside ns/op the case reports the quorum-wait p50 and how
// many fabric messages (records + acks, both directions) each shipped record
// cost — the figure frame batching exists to shrink. Both read zero, and are
// omitted, on an unreplicated one.
func perfCommit(seed int64, cfg rig.Config) (PerfCase, error) {
	cfg.Seed, cfg.NoDaemons = seed, true
	var t timedRun
	var runErr error
	var quorumP50 time.Duration
	var netMsgs, shipped int64
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	res := testing.Benchmark(func(b *testing.B) {
		r, err := rig.New(cfg)
		if err != nil {
			runErr = err
			return
		}
		defer r.Close()
		n := 0
		r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				runErr = err
				return
			}
			for ; n < b.N; n++ {
				tx := e.Begin(p)
				if err := tx.Put(keys[n%len(keys)], []byte("v")); err != nil {
					runErr = err
					return
				}
				if err := tx.Commit(); err != nil {
					runErr = err
					return
				}
			}
		})
		if err := t.measure(b, r.S, func() error { return r.S.RunFor(10000 * time.Hour) }); err != nil {
			runErr = err
			return
		}
		if runErr == nil && n != b.N {
			runErr = fmt.Errorf("completed %d/%d commits", n, b.N)
		}
		reg := r.Obs.Registry()
		quorumP50 = reg.Histogram("rapilog.quorum_wait").Quantile(0.5)
		netMsgs = reg.Counter("net.sent").Value()
		shipped = reg.Counter("repl.shipped").Value()
	})
	pc := t.result(res)
	pc.QuorumP50Ns = float64(quorumP50.Nanoseconds())
	if shipped > 0 {
		pc.NetMsgsPerRecord = float64(netMsgs) / float64(shipped)
	}
	return pc, runErr
}

// perfShipThroughput measures the raw shipping path with no engine in
// front: a sim + fabric + shipper + 2 standbys, streaming sector records
// with a WaitQuorum(1) backpressure point every 256 records so retention
// and acks cycle the way a real deployment's do. ns/op and allocs/op are
// per shipped record; net_msgs_per_record counts every fabric message the
// stream cost (records and acks) per record.
func perfShipThroughput(seed int64) (PerfCase, error) {
	var t timedRun
	var runErr error
	var netMsgs int64
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	res := testing.Benchmark(func(b *testing.B) {
		s := sim.New(seed)
		defer s.Close()
		reg := obs.NewRegistry()
		fab := netsim.New(s, netsim.Config{Seed: seed + 1, Reg: reg})
		cfg := replica.Config{Reg: reg}
		names := []string{"standby0", "standby1"}
		for _, name := range names {
			replica.NewStandby(s, fab, name, cfg)
		}
		sh := replica.NewShipper(s, fab, nil, 1, names, cfg)
		n := 0
		s.Spawn(nil, "shipper", func(p *sim.Proc) {
			for ; n < b.N; n++ {
				seq := sh.Ship(int64(n%4096)*8, data)
				if n%256 == 255 {
					sh.WaitQuorum(p, seq, 1)
				}
			}
			if last := sh.LastSeq(); last > 0 {
				sh.WaitQuorum(p, last, 1)
			}
		})
		if err := t.measure(b, s, func() error { return s.RunFor(10000 * time.Hour) }); err != nil {
			runErr = err
			return
		}
		if runErr == nil && n != b.N {
			runErr = fmt.Errorf("shipped %d/%d records", n, b.N)
		}
		netMsgs = reg.Counter("net.sent").Value()
	})
	pc := t.result(res)
	if res.N > 0 {
		pc.NetMsgsPerRecord = float64(netMsgs) / float64(res.N)
	}
	return pc, runErr
}

// perfShardScaling runs the weak-scaling point for one shard count: an
// n-shard deployment provisioned per shard (4 cores, clientsPerShard
// clients, 4 TPC-B branches each, its own spindle), driven by the
// hash-partitioned workload. Reports fleet virtual TPS and the merged
// commit-ack p50 — the pair the scaling claim is judged on.
func perfShardScaling(shards, clientsPerShard int, dur, warmup time.Duration, seed int64) (PerfCase, error) {
	// SSD shards: on the measured PSU the N-aware sizing rule rejects 8 HDD
	// dump zones (2·8·~16ms of positioning overruns the ~250ms hold-up
	// budget) — which is the rule doing its job, not a bench failure. SSDs
	// are both the realistic scale-out hardware and well inside the budget.
	r, err := rig.New(rig.Config{Seed: seed, Cores: 4 * shards, Disk: rig.DiskSSD, Shards: shards})
	if err != nil {
		return PerfCase{}, err
	}
	defer r.Close()
	base := workload.TPCB{Branches: 4 * shards, Tellers: 4, Accounts: 200}
	parts, err := workload.PartitionTPCB(base, r.Router)
	if err != nil {
		return PerfCase{}, err
	}
	var res workload.ShardedResult
	var runErr error
	var events uint64
	var wall time.Duration
	done := r.S.NewEvent("shard_scaling.done")
	r.S.Spawn(nil, "perf", func(p *sim.Proc) {
		defer done.Fire()
		engines := make([]*engine.Engine, shards)
		doms := make([]*sim.Domain, shards)
		ws := make([]workload.Workload, shards)
		for i, d := range r.Domains {
			e, err := d.Boot(p)
			if err != nil {
				runErr = fmt.Errorf("shard %d boot: %w", i, err)
				return
			}
			engines[i], doms[i], ws[i] = e, d.Plat.Domain(), parts[i]
		}
		for i, e := range engines {
			if err := parts[i].Load(p, e); err != nil {
				runErr = fmt.Errorf("shard %d load: %w", i, err)
				return
			}
		}
		d0 := r.S.Dispatched()
		start := time.Now()
		res, runErr = workload.RunShardedClients(p, doms, engines, ws, nil, workload.RunnerConfig{
			Clients: clientsPerShard, Duration: dur, Warmup: warmup,
		})
		wall = time.Since(start)
		events = r.S.Dispatched() - d0
	})
	if err := r.S.RunUntilEvent(done); err != nil {
		return PerfCase{}, err
	}
	if runErr != nil {
		return PerfCase{}, runErr
	}
	pc := PerfCase{
		Shards:     shards,
		VirtualTPS: res.Total.TPS(),
		Committed:  res.Total.Committed,
	}
	if wall > 0 {
		pc.EventsPerSec = float64(events) / wall.Seconds()
	}
	p50 := shard.RollupHistogram(r.Obs.Registry(), shards, "engine.commit.ack_latency").Quantile(0.5)
	pc.CommitP50Ns = float64(p50.Nanoseconds())
	return pc, nil
}

// perfWorkload runs a closed-loop client pool for a fixed virtual duration
// on the RapiLog deployment and reports virtual TPS alongside how much of
// that virtual activity a wall-clock second executed.
func perfWorkload(name string, wl workload.Workload, clients int, dur, warmup time.Duration, seed int64) (PerfCase, error) {
	r, err := rig.New(rig.Config{Seed: seed, Mode: rig.RapiLog})
	if err != nil {
		return PerfCase{}, err
	}
	defer r.Close()
	var res workload.RunResult
	var runErr error
	var events uint64
	var wall time.Duration
	var mallocs uint64
	done := r.S.NewEvent(name + ".done")
	r.S.Spawn(r.Plat.Domain(), "perf", func(p *sim.Proc) {
		defer done.Fire()
		e, err := r.Boot(p)
		if err != nil {
			runErr = fmt.Errorf("boot: %w", err)
			return
		}
		if err := wl.Load(p, e); err != nil {
			runErr = fmt.Errorf("load: %w", err)
			return
		}
		// Measure only the measurement interval: the loaders above allocate
		// heavily and would swamp the per-transaction figure.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d0 := r.S.Dispatched()
		start := time.Now()
		res = workload.RunClients(p, r.Plat.Domain(), e, wl, workload.RunnerConfig{
			Clients: clients, Duration: dur, Warmup: warmup,
		})
		wall = time.Since(start)
		events = r.S.Dispatched() - d0
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
	})
	if err := r.S.RunUntilEvent(done); err != nil {
		return PerfCase{}, err
	}
	if runErr != nil {
		return PerfCase{}, runErr
	}
	pc := PerfCase{
		VirtualTPS: res.TPS(),
		Committed:  res.Committed,
	}
	if wall > 0 {
		pc.EventsPerSec = float64(events) / wall.Seconds()
	}
	if res.Committed > 0 {
		pc.AllocsPerTx = float64(mallocs) / float64(res.Committed)
	}
	return pc, nil
}

// perfFailoverTakeover measures the HA takeover path end to end: one
// 3-node cluster under session load, the leader's plug pulled, the
// coordinator fencing and promoting a standby. Reports the client-visible
// takeover window (virtual time) and the simulator's event throughput
// while running the full cluster — the cost of the HA machinery itself.
func perfFailoverTakeover(seed int64, quick bool) (PerfCase, error) {
	c, err := rig.NewCluster(rig.ClusterConfig{
		Nodes: 3,
		Rig:   rig.Config{Seed: seed, AckPolicy: core.AckQuorum(1)},
	})
	if err != nil {
		return PerfCase{}, err
	}
	defer c.Close()
	s := c.S
	dir := workload.NewDirectory()
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		dir.Update(gen, name, e, dom)
	}
	w := &workload.Stress{ValueSize: 1000}
	var runErr error
	var cutAt time.Duration
	s.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			runErr = err
			return
		}
		dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})
	// Sessions run "forever"; the case ends at the first commit against the
	// promoted leader (the takeover window is the measurement, and it is
	// dominated by WAL redo on the promoted node, which scales with the
	// pre-cut load).
	s.Spawn(nil, "sessions", func(p *sim.Proc) {
		workload.RunSessions(p, dir, w, workload.SessionConfig{
			Clients: 4, Duration: 10 * time.Minute,
			Reg: c.Obs.Registry(), Trace: c.Obs.Tracer(),
		})
	})
	done := s.NewEvent("perf.failover.done")
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		cutAt = p.Now().Duration()
		c.CutLeaderPower()
		deadline := p.Now().Add(3 * time.Minute)
		for p.Now() < deadline {
			if _, ok := dir.FirstSuccess(2); ok {
				break
			}
			p.Sleep(50 * time.Millisecond)
		}
		done.Fire()
	})

	d0 := s.Dispatched()
	start := time.Now()
	if err := s.RunUntilEvent(done); err != nil {
		return PerfCase{}, err
	}
	wall := time.Since(start)
	events := s.Dispatched() - d0
	if runErr != nil {
		return PerfCase{}, runErr
	}
	first, ok := dir.FirstSuccess(2)
	if !ok || first <= cutAt {
		return PerfCase{}, fmt.Errorf("failover_takeover: no commit on the promoted leader (failovers %d, err %v)",
			c.Coord.Failovers(), c.Coord.LastErr())
	}
	pc := PerfCase{TakeoverNs: float64((first - cutAt).Nanoseconds())}
	if wall > 0 {
		pc.EventsPerSec = float64(events) / wall.Seconds()
	}
	return pc, nil
}
