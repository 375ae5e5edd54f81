package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Layer probes: one layer at a time, driven through its exported API with an
// operation count fixed by -seconds, so event and allocation counts repeat
// exactly and host time per operation can be compared across commits. They
// run only in traced runs; the figures are per-layer metrics, never
// end-to-end ones.

// probeResult is host nanoseconds and heap allocations per operation.
type probeResult struct{ ns, allocs float64 }

// timed runs loop, which performs ops operations, and reports per-operation
// cost. It is called from inside a simulated process, after that process
// finished the probe's set-up, so set-up is not counted.
func timed(ops int, loop func()) probeResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	loop()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probeResult{
		ns:     float64(d.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// probe is one named layer probe. Its metrics are <name>_ns and, when
// allocs is set, <name>_allocs.
type probe struct {
	name   string // "<layer>.<what>_probe"
	allocs bool
	ops    int // operations at -seconds 10
	run    func(seed int64, ops int) (probeResult, error)
}

var probes = []probe{
	{"sim.sleep_wake_probe", true, 200_000, probeSleepWake},
	{"sim.queue_handoff_probe", true, 100_000, probeQueueHandoff},
	{"engine.commit_probe", true, 20_000, func(seed int64, ops int) (probeResult, error) { return probeEngine(seed, ops, false) }},
	{"engine.get_probe", false, 20_000, func(seed int64, ops int) (probeResult, error) { return probeEngine(seed, ops, true) }},
	{"wal.append_force_probe", true, 50_000, probeWalAppendForce},
	{"core.write_4k_probe", true, 50_000, func(seed int64, ops int) (probeResult, error) { return probeLoggerWrite(seed, ops, false) }},
	{"core.write_absorb_probe", true, 50_000, func(seed int64, ops int) (probeResult, error) { return probeLoggerWrite(seed, ops, true) }},
	{"disk.hdd_write_probe", false, 20_000, probeHDDWrite},
	{"replica.ship_probe", true, 50_000, probeShip},
	{"netsim.send_probe", false, 50_000, probeNetSend},
}

// runProbes runs every probe under its own span and stores the results.
func runProbes(seed int64, scale float64, spans *spanLog, parent int, m results) error {
	for _, pr := range probes {
		spans.collect(parent)
		sp := spans.open(parent, layerOf(pr.name), pr.name, 0)
		res, err := pr.run(seed, max(512, int(float64(pr.ops)*scale)))
		spans.close(sp, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		m[pr.name+"_ns"] = res.ns
		if pr.allocs {
			m[pr.name+"_allocs"] = res.allocs
		}
	}
	return nil
}

// probeSleepWake: the kernel's cheapest blocking round trip — one timer,
// one park, one wake.
func probeSleepWake(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	s.Spawn(nil, "sleeper", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	})
	return res, s.Run()
}

// probeQueueHandoff: two processes ping-pong one item through a pair of
// sim.Queues — the process-to-process hand-off every device request and
// every client/daemon rendezvous pays. One operation is a full round trip.
func probeQueueHandoff(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	ping := sim.NewQueue[int](s, "ping", 1)
	pong := sim.NewQueue[int](s, "pong", 1)
	s.Spawn(nil, "echo", func(p *sim.Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			if pong.Put(p, v) != nil {
				return
			}
		}
	})
	s.Spawn(nil, "caller", func(p *sim.Proc) {
		defer ping.Close()
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				if err = ping.Put(p, i); err != nil {
					return
				}
				if _, ok := pong.Get(p); !ok {
					err = fmt.Errorf("pong closed at %d", i)
					return
				}
			}
		})
	})
	if runErr := s.Run(); runErr != nil {
		return res, runErr
	}
	return res, err
}

// probeEngine: one client on a RapiLog rig without daemons. Commit mode is
// Begin/Put/Commit (WAL append + force into the RapiLog buffer + apply);
// read mode is Begin/Get/Commit over the keys the commits wrote.
func probeEngine(seed int64, ops int, read bool) (res probeResult, err error) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	r, err := rig.New(rig.Config{Seed: seed, Mode: rig.RapiLog, NoDaemons: true})
	if err != nil {
		return res, err
	}
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, bootErr := r.Boot(p)
		if bootErr != nil {
			err = bootErr
			return
		}
		commit := func(n int) {
			for i := 0; i < n && err == nil; i++ {
				tx := e.Begin(p)
				if err = tx.Put(keys[i%len(keys)], []byte("v")); err == nil {
					err = tx.Commit()
				}
			}
		}
		if !read {
			res = timed(ops, func() { commit(ops) })
			return
		}
		commit(len(keys))
		res = timed(ops, func() {
			for i := 0; i < ops && err == nil; i++ {
				tx := e.Begin(p)
				if _, ok, getErr := tx.Get(keys[i%len(keys)]); getErr != nil || !ok {
					err = fmt.Errorf("get %s: found %v, err %v", keys[i%len(keys)], ok, getErr)
				}
				if cErr := tx.Commit(); err == nil {
					err = cErr
				}
			}
		})
	})
	if runErr := r.S.RunFor(1000 * time.Hour); runErr != nil {
		return res, runErr
	}
	return res, err
}

// probeWalAppendForce: one record appended and forced per operation onto a
// memory device, so the WAL's own framing, sealing and force bookkeeping is
// all there is.
func probeWalAppendForce(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	dev := disk.NewMem(s, disk.MemConfig{Name: "probe-log", Persistent: true})
	l, err := wal.New(s, dev, wal.Config{})
	if err != nil {
		return res, err
	}
	payload := make([]byte, 100)
	s.Spawn(nil, "appender", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				lsn, aErr := l.Append(p, wal.RecUpdate, uint64(i), payload)
				if aErr == nil {
					aErr = l.Force(p, lsn)
				}
				if aErr != nil {
					err = aErr
					return
				}
				l.SetOldestNeeded(lsn) // nothing to recover: let the ring recycle
			}
		})
	})
	if runErr := s.Run(); runErr != nil {
		return res, runErr
	}
	return res, err
}

// probeLoggerWrite: one 4 KiB RapiLog buffered write per operation — the
// fast path every commit takes. Absorb mode rewrites one block (in-place
// absorption); otherwise writes walk distinct blocks (fresh-entry path,
// with the drain daemon keeping up behind).
func probeLoggerWrite(seed int64, ops int, absorb bool) (res probeResult, err error) {
	r, err := rig.New(rig.Config{Seed: seed, Mode: rig.RapiLog, NoDaemons: true})
	if err != nil {
		return res, err
	}
	data := make([]byte, 4096)
	blocks := r.Logger.Sectors()/8 - 1
	r.S.Spawn(r.Plat.Domain(), "writer", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				lba := int64(i) % blocks * 8
				if absorb {
					lba = 0
				}
				if err = r.Logger.Write(p, lba, data, false); err != nil {
					return
				}
			}
		})
	})
	if runErr := r.S.RunFor(1000 * time.Hour); runErr != nil {
		return res, runErr
	}
	return res, err
}

// probeHDDWrite: one forced 4 KiB write per operation against the HDD
// model, walking the log region sequentially — what a sync commit pays the
// disk layer in host time (the virtual cost is the model's point).
func probeHDDWrite(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	dev := disk.NewHDD(s, s.NewDomain("hw"), disk.HDDConfig{Name: "probe-hdd"})
	data := make([]byte, 4096)
	s.Spawn(nil, "writer", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				if err = dev.Write(p, int64(i%4096)*8, data, true); err != nil {
					return
				}
			}
		})
	})
	if runErr := s.RunFor(1000 * time.Hour); runErr != nil {
		return res, runErr
	}
	return res, err
}

// probeShip: the shipping path with no engine in front — fabric, shipper,
// two standbys, sector records, a WaitQuorum(1) every 256 records so
// retention and acks cycle as they do in a deployment.
func probeShip(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	reg := obs.NewRegistry()
	fab := netsim.New(s, netsim.Config{Seed: seed + 1, Reg: reg})
	cfg := replica.Config{Reg: reg}
	names := []string{"standby0", "standby1"}
	for _, name := range names {
		replica.NewStandby(s, fab, name, cfg)
	}
	sh := replica.NewShipper(s, fab, nil, 1, names, cfg)
	data := make([]byte, 512)
	s.Spawn(nil, "shipper", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops; i++ {
				seq := sh.Ship(int64(i%4096)*8, data)
				if i%256 == 255 {
					sh.WaitQuorum(p, seq, 1)
				}
			}
			sh.WaitQuorum(p, sh.LastSeq(), 1)
		})
	})
	return res, s.RunFor(1000 * time.Hour)
}

// probeNetSend: two endpoints ping-pong a 64-byte message; one operation is
// one fabric send (half a round trip).
func probeNetSend(seed int64, ops int) (res probeResult, err error) {
	s := sim.New(seed)
	fab := netsim.New(s, netsim.Config{Seed: seed + 1, Reg: obs.NewRegistry()})
	a, b := fab.Endpoint("a"), fab.Endpoint("b")
	type ball struct{}
	msg := &ball{}
	s.Spawn(nil, "b", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			b.Recv(p)
			b.Send("a", 64, msg)
		}
	})
	s.Spawn(nil, "a", func(p *sim.Proc) {
		res = timed(ops, func() {
			for i := 0; i < ops/2; i++ {
				a.Send("b", 64, msg)
				a.Recv(p)
			}
		})
	})
	return res, s.Run()
}
