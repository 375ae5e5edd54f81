package rig

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stressKeys lists every key a stress run with the given clients could
// have written, up to n per client (workload.Stress names its rows
// "st:<client>:<seq>").
func stressKeys(clients, n int) []string {
	var out []string
	for c := 0; c < clients; c++ {
		for i := 1; i <= n; i++ {
			out = append(out, fmt.Sprintf("st:%d:%d", c, i))
		}
	}
	return out
}

// readKeys reads keys on e, absent ones as nil, from a process in e's
// guest.
func readKeys(p *sim.Proc, e *engine.Engine, keys []string) ([][]byte, error) {
	tx := e.Begin(p)
	defer tx.Abort()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, ok, err := tx.Get(k)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = append([]byte{}, v...)
		}
	}
	return out, nil
}

// runOnDomain runs fn in dom and waits for it.
func runOnDomain(p *sim.Proc, dom *sim.Domain, fn func(*sim.Proc)) {
	done := p.Sim().NewEvent("ran")
	p.Sim().Spawn(dom, "check", func(cp *sim.Proc) {
		defer done.Fire()
		fn(cp)
	})
	done.Wait(p)
}

// TestPromotedFollowerMatchesColdRecovery is the multi-epoch ordering
// check. Under AckQuorum(2) on three nodes (census quorum 1), node2's
// store is isolated through the first takeover, so it holds only a prefix
// of epoch 1; healed, it takes epoch 2 whole, whose writes start past the
// end of epoch 1. The second takeover promotes a follower whose own store
// lacks (part of) epoch 1: the promotion must fold epoch 1's suffix from
// another store under epoch 2's blocks. The promoted node's log partition
// must then be sector-identical to a cold replay of the same stores onto a
// fresh disk, and its engine must hold what a cold engine.Open of that
// disk holds, key for key.
func TestPromotedFollowerMatchesColdRecovery(t *testing.T) {
	const clients = 2
	c, err := NewCluster(ClusterConfig{Nodes: 3, Rig: Config{Seed: 11, AckPolicy: core.AckQuorum(2)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if c.Quorum() != 1 {
		t.Fatalf("test premise: census quorum %d, want 1", c.Quorum())
	}
	dir, j := workload.NewDirectory(), workload.NewJournal()
	keys := stressKeys(clients, 2000)
	var checked bool
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		if gen < 3 {
			dir.Update(gen, name, e, dom)
			return
		}
		// Compare before any session commits on generation 3.
		c.S.Spawn(nil, "compare", func(p *sim.Proc) {
			defer dir.Update(gen, name, e, dom)
			idx := c.nodeByName(name)
			warm := c.nodes[idx].rig
			var srcs []*replica.Standby
			end := int64(0)
			for _, n := range c.nodes {
				if n.store.Alive() && !c.Fabric.Isolated(n.store.Name()) {
					srcs = append(srcs, n.store)
				}
				for _, r := range n.store.Records() {
					end = max(end, r.Lba+int64(len(r.Data)/512))
				}
			}
			if rp := c.LastReplay; len(rp.From) < 2 || !strings.Contains(rp.From[0], ":e1≤") {
				t.Errorf("test premise: the promotion replayed no earlier epoch under the last one: %v", rp)
			}
			cold, err := c.buildNode(idx, 0)
			if err != nil {
				t.Error(err)
				return
			}
			cold.Plat = cold.HV.NewGuest("cold.db", cold.LogDev, cold.DataPart)
			if _, err := replica.Recover(p, srcs, cold.LogDev, nil); err != nil {
				t.Error(err)
				return
			}
			a, errA := readN(p, warm.LogDev, 0, int(end))
			b, errB := readN(p, cold.LogDev, 0, int(end))
			if errA != nil || errB != nil {
				t.Errorf("reading the partitions: %v, %v", errA, errB)
				return
			}
			if !bytes.Equal(a, b) {
				for s := 0; s < int(end); s++ {
					if !bytes.Equal(a[s*512:(s+1)*512], b[s*512:(s+1)*512]) {
						t.Errorf("%s's log partition differs from a cold replay at sector %d of %d", name, s, end)
						break
					}
				}
				return
			}
			var warmVals, coldVals [][]byte
			runOnDomain(p, dom, func(cp *sim.Proc) { warmVals, err = readKeys(cp, e, keys) })
			if err != nil {
				t.Error(err)
				return
			}
			runOnDomain(p, cold.Plat.Domain(), func(cp *sim.Proc) {
				cfg := cold.EngineConfig()
				cfg.NoDaemons = true
				ce, oerr := engine.Open(cp, cold.Plat, cfg)
				if oerr != nil {
					err = oerr
					return
				}
				coldVals, err = readKeys(cp, ce, keys)
			})
			if err != nil {
				t.Error(err)
				return
			}
			rows := 0
			for i := range keys {
				if !bytes.Equal(warmVals[i], coldVals[i]) {
					t.Errorf("%s: the promoted engine has %q = %d bytes, a cold open %d bytes", name, keys[i], len(warmVals[i]), len(coldVals[i]))
					return
				}
				if warmVals[i] != nil {
					rows++
				}
			}
			if rows == 0 || rows >= len(keys) {
				t.Errorf("test premise: %d of the %d probed keys are rows", rows, len(keys))
			}
			t.Logf("%s promoted at generation 3: %v; %d rows, partitions equal over %d sectors", name, c.LastReplay, rows, end)
			checked = true
		})
	}

	c.S.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})
	var res workload.RunResult
	done := c.S.NewEvent("sessions.done")
	c.S.Spawn(nil, "sessions", func(p *sim.Proc) {
		defer done.Fire()
		res = workload.RunSessions(p, dir, &workload.Stress{ValueSize: 1000}, workload.SessionConfig{
			Clients: clients, Duration: 1500 * time.Millisecond, Journal: j,
		})
	})
	c.S.Spawn(nil, "operator", func(p *sim.Proc) {
		waitFailovers := func(n int) {
			for c.Coord.Failovers() < n {
				p.Sleep(5 * time.Millisecond)
			}
		}
		p.Sleep(300 * time.Millisecond)
		lagging := c.nodes[2].store.Name()
		c.Fabric.Isolate(lagging)
		p.Sleep(50 * time.Millisecond)
		c.CutLeaderPower()
		waitFailovers(1)
		c.Fabric.Restore(lagging)
		if err := c.RejoinAsStandby(p, "node0"); err != nil {
			t.Errorf("rejoin: %v", err)
		}
		p.Sleep(300 * time.Millisecond)
		c.CutLeaderPower()
		waitFailovers(2)
	})
	if err := c.S.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	if c.Coord.Failovers() != 2 || c.generation != 3 {
		t.Fatalf("failovers %d, generation %d (last error %v): want two takeovers", c.Coord.Failovers(), c.generation, c.Coord.LastErr())
	}
	if !checked {
		t.Fatal("the comparison never completed")
	}
	ld := dir.Leader()
	var vr workload.VerifyResult
	audited := c.S.NewEvent("audited")
	c.S.Spawn(ld.Dom, "audit", func(p *sim.Proc) {
		defer audited.Fire()
		vr, err = j.Verify(p, ld.Eng)
	})
	if err := c.S.RunUntilEvent(audited); err != nil {
		t.Fatal(err)
	}
	if err != nil || !vr.Ok() || res.Committed == 0 {
		t.Fatalf("audit: %v, err %v, %d committed", vr, err, res.Committed)
	}
}

// cutTrial is one seeded three-node cluster under stress sessions that run
// for a fixed span and are then audited on whoever leads, stepped by hand
// so that a test can act after an exact number of events.
type cutTrial struct {
	c       *Cluster
	dir     *workload.Directory
	j       *workload.Journal
	audit   workload.VerifyResult
	err     error
	audited *sim.Event
}

func newCutTrial(t *testing.T, seed int64) *cutTrial {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Nodes: 3, Rig: Config{Seed: seed, AckPolicy: core.AckQuorum(1)}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &cutTrial{c: c, dir: workload.NewDirectory(), j: workload.NewJournal(), audited: c.S.NewEvent("audited")}
	c.OnPromote = tr.dir.Update
	c.S.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			tr.err = err
			return
		}
		tr.dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})
	c.S.Spawn(nil, "sessions", func(p *sim.Proc) {
		defer tr.audited.Fire()
		workload.RunSessions(p, tr.dir, &workload.Stress{ValueSize: 1000}, workload.SessionConfig{
			Clients: 1, Duration: 120 * time.Millisecond, Journal: tr.j,
		})
		for tr.dir.Leader().Gen < 2 && c.Coord.Failovers() == 0 && p.Now() < sim.Time(time.Minute) {
			p.Sleep(10 * time.Millisecond)
		}
		ld := tr.dir.Leader()
		runOnDomain(p, ld.Dom, func(vp *sim.Proc) { tr.audit, tr.err = tr.j.Verify(vp, ld.Eng) })
	})
	return tr
}

// TestLeaderPowerCutAtEveryEventOfAFollowerRound replays one seeded cluster
// once per event index k of one round of the winner's follower — its write
// into the log partition in flight, its scan in flight, its redo done — and
// pulls the leader's plug after exactly k events. Whatever the round was
// doing, the promotion must lose no acknowledged commit.
func TestLeaderPowerCutAtEveryEventOfAFollowerRound(t *testing.T) {
	const seed, round = 5, 0
	// Find the round's event span on a run with no cut.
	probe := newCutTrial(t, seed)
	first, last := -1, -1
	for k := 1; last < 0 && k < 200000; k++ {
		if ok, err := probe.c.S.Step(); err != nil || !ok {
			t.Fatalf("probe: step %d: ok=%v err=%v", k, ok, err)
		}
		f := probe.c.nodes[1].f
		switch {
		case f == nil:
		case first < 0 && f.rounds == round && f.phase == "mirror":
			first = k
		case first >= 0 && f.rounds > round:
			last = k
		}
	}
	probe.c.Close()
	if first < 0 || last < 0 {
		t.Fatalf("node1's follower never ran round %d", round)
	}
	var mirror, scan, redone, lost int
	for k := first - 1; k <= last+2; k++ {
		tr := newCutTrial(t, seed)
		for i := 0; i < k; i++ {
			if ok, err := tr.c.S.Step(); err != nil || !ok {
				t.Fatalf("k=%d: step %d: ok=%v err=%v", k, i, ok, err)
			}
		}
		f := tr.c.nodes[1].f
		phase, rounds := f.phase, f.rounds
		tr.c.CutLeaderPower()
		if err := tr.c.S.RunUntilEvent(tr.audited); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if tr.err != nil || tr.c.Coord.Failovers() != 1 {
			t.Fatalf("k=%d: failovers %d, err %v", k, tr.c.Coord.Failovers(), tr.err)
		}
		if !tr.audit.Ok() {
			lost++
			t.Errorf("cut after event %d (round %d, %q): %v", k, rounds, phase, tr.audit)
		}
		if tr.c.LeaderName() == "node1" {
			switch {
			case rounds == round && phase == "mirror":
				mirror++
			case rounds == round && phase == "scan":
				scan++
			case rounds > round:
				redone++
			}
		}
		tr.c.Close()
	}
	t.Logf("cuts after events %d..%d of round %d on node1: %d with its write in flight, %d with its scan in flight, %d after its redo; %d lost acks",
		first-1, last+2, round, mirror, scan, redone, lost)
	if mirror == 0 || scan == 0 || redone == 0 {
		t.Fatal("vacuous sweep: a class of cut point was never reached on the winner")
	}
}

// TestCloseEndsEveryFollower: followers run in their own guests until the
// cluster closes; none outlives Close.
func TestCloseEndsEveryFollower(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := newCutTrial(t, 5)
	if err := tr.c.S.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var doms []*sim.Domain
	for _, n := range tr.c.nodes[1:] {
		if n.f == nil || n.f.r.Plat.Domain().Procs() == 0 {
			t.Fatalf("test premise: %s has no running follower", n.name)
		}
		doms = append(doms, n.f.r.Plat.Domain())
	}
	tr.c.Close()
	for i, d := range doms {
		if d.Procs() != 0 {
			t.Fatalf("%s: %d processes alive after Close", tr.c.nodes[i+1].name, d.Procs())
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before the cluster", n, before)
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d disk.Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*disk.SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}
