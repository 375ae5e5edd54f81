package rig

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 3, Rig: Config{AckPolicy: core.AckQuorum(3)}}); err == nil {
		t.Fatal("quorum larger than peer set accepted")
	}
	c, err := NewCluster(ClusterConfig{Nodes: 3, Rig: Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// AckLocal is indistinguishable from unset and must be forced up: a
	// local-ack cluster has no census that intersects its (empty) ack
	// quorums, so takeover could lose acked commits.
	if !c.Cfg.Rig.AckPolicy.Remote() {
		t.Fatalf("cluster kept non-remote ack policy %v", c.Cfg.Rig.AckPolicy)
	}
	if got := c.Quorum(); got != 2 {
		t.Fatalf("census quorum = %d for 3 nodes / AckQuorum(1), want 2", got)
	}
	if c.LeaderName() != "node0" || c.generation != 1 {
		t.Fatalf("initial leadership = %s gen %d", c.LeaderName(), c.generation)
	}
	if c.nodes[0].store.Alive() {
		t.Fatal("leader's own store must be crashed while it leads")
	}
}

// loadedCluster is a seeded 3-node cluster under four stress sessions that
// run for a fixed span and then audit every journaled ack on whoever leads,
// with an operator process scripting the fault alongside. The run ends once
// both the audit and the operator are done.
type loadedCluster struct {
	*Cluster
	dir      *workload.Directory
	j        *workload.Journal
	exLeader string
	res      workload.RunResult
	audit    workload.VerifyResult
	auditErr error
}

func runLoadedCluster(t *testing.T, rc Config, sessionsFor time.Duration, operator func(p *sim.Proc, lc *loadedCluster)) *loadedCluster {
	t.Helper()
	rc.AckPolicy = core.AckQuorum(1)
	c, err := NewCluster(ClusterConfig{Nodes: 3, Rig: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	lc := &loadedCluster{Cluster: c, dir: workload.NewDirectory(), j: workload.NewJournal(), exLeader: c.LeaderName()}
	c.OnPromote = func(gen int, name string, e *engine.Engine, dom *sim.Domain) {
		lc.dir.Update(gen, name, e, dom)
	}
	w := &workload.Stress{ValueSize: 2000}

	c.S.Spawn(c.LeaderRig().Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := c.LeaderRig().Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		lc.dir.Update(1, c.LeaderName(), e, c.LeaderRig().Plat.Domain())
	})
	audited, operated := c.S.NewEvent("audited"), c.S.NewEvent("operated")
	c.S.Spawn(nil, "sessions", func(p *sim.Proc) {
		defer audited.Fire()
		lc.res = workload.RunSessions(p, lc.dir, w, workload.SessionConfig{
			Clients:  4,
			Duration: sessionsFor,
			Journal:  lc.j,
			Reg:      c.Obs.Registry(),
			Trace:    c.Obs.Tracer(),
		})
		// Every acked op — quorum-acked under gen 1 or committed on the
		// promoted leader — must be present and correct on whoever leads now.
		ld := lc.dir.Leader()
		if ld.Gen != 2 {
			t.Errorf("final generation = %d, want 2", ld.Gen)
			return
		}
		vdone := p.Sim().NewEvent("audit.done")
		p.Sim().Spawn(ld.Dom, "audit", func(vp *sim.Proc) {
			lc.audit, lc.auditErr = lc.j.Verify(vp, ld.Eng)
			vdone.Fire()
		})
		vdone.Wait(p)
	})
	c.S.Spawn(nil, "operator", func(p *sim.Proc) {
		defer operated.Fire()
		operator(p, lc)
	})
	if err := c.S.RunUntilEvent(operated); err != nil {
		t.Fatal(err)
	}
	if err := c.S.RunUntilEvent(audited); err != nil {
		t.Fatal(err)
	}
	return lc
}

// TestClusterFailoverPowerCut is the end-to-end tentpole smoke: boot a
// 3-node cluster, drive redirect-aware sessions through it, pull the
// leader's plug mid-run, and require that the coordinator promotes a
// standby, the sessions commit against the new leader, every op acked
// before or after the takeover is durable on the new leader, the deposed
// node rejoins as a fenced standby, and the single-writer invariant never
// fires.
func TestClusterFailoverPowerCut(t *testing.T) {
	var cutAt time.Duration
	var ackedAtCut int
	lc := runLoadedCluster(t, Config{Seed: 42}, 45*time.Second, func(p *sim.Proc, lc *loadedCluster) {
		p.Sleep(1500 * time.Millisecond)
		ackedAtCut = lc.j.Len()
		cutAt = p.Now().Duration()
		lc.CutLeaderPower()
		for lc.Coord.Failovers() == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		if err := lc.RejoinAsStandby(p, lc.exLeader); err != nil {
			t.Errorf("rejoin: %v", err)
		}
	})
	if lc.Coord.Failovers() != 1 {
		t.Fatalf("failovers = %d (lastErr %v), want exactly 1", lc.Coord.Failovers(), lc.Coord.LastErr())
	}
	if lc.Coord.LastErr() != nil {
		t.Fatalf("coordinator error: %v", lc.Coord.LastErr())
	}
	if lc.generation != 2 || lc.LeaderName() == lc.exLeader {
		t.Fatalf("leadership after takeover: %s gen %d", lc.LeaderName(), lc.generation)
	}
	if ackedAtCut == 0 {
		t.Fatal("no ops acked before the cut — test proves nothing")
	}
	if lc.res.Committed == 0 {
		t.Fatal("sessions never committed")
	}
	if lc.auditErr != nil {
		t.Fatalf("audit: %v", lc.auditErr)
	}
	if !lc.audit.Ok() {
		t.Fatalf("acked-op loss across takeover: %v (acked at cut %d, total %d)", lc.audit, ackedAtCut, lc.j.Len())
	}

	// The client-visible outage: first gen-2 commit minus the cut.
	firstOK, ok := lc.dir.FirstSuccess(2)
	if !ok {
		t.Fatal("no session ever committed against the promoted leader")
	}
	if firstOK <= cutAt {
		t.Fatalf("gen-2 first success %v precedes the cut %v", firstOK, cutAt)
	}
	t.Logf("unavailability window: %v; replay %d bytes / %d entries from %s",
		firstOK-cutAt, lc.LastReplay.Bytes, lc.LastReplay.Entries, lc.LastReplay.From)

	// The deposed node must have rejoined fenced at the new epoch and
	// caught up from the live stream.
	ex := lc.nodes[0].store
	if !ex.Alive() {
		t.Fatal("ex-leader store not restarted")
	}
	if fence := standingFence(t, lc.Cluster, ex.Name()); fence < lc.epoch {
		t.Fatalf("ex-leader store fenced at %d, cluster epoch %d", fence, lc.epoch)
	}
	if ex.AppliedSeq(lc.epoch) == 0 {
		t.Fatalf("ex-leader store never caught up on epoch %d", lc.epoch)
	}

	rep := lc.Monitor.Report()
	if rep.ByKind["single_writer_epoch"] != 0 {
		t.Fatalf("split-brain: single_writer_epoch fired %d times", rep.ByKind["single_writer_epoch"])
	}
	if rep.Total != 0 {
		t.Fatalf("monitor violations during clean failover: %+v", rep)
	}
}

// TestClusterFailoverIsolation exercises the partition path: the leader
// stays powered but unreachable, so its in-flight commits stall un-acked
// (AckQuorum needs a remote ack) while the coordinator fences and promotes
// a standby. After healing, the deposed node rejoins; no acked op may be
// lost and both writers must never be acked in one epoch.
func TestClusterFailoverIsolation(t *testing.T) {
	lc := runLoadedCluster(t, Config{Seed: 7}, 45*time.Second, func(p *sim.Proc, lc *loadedCluster) {
		p.Sleep(1500 * time.Millisecond)
		lc.IsolateLeader()
		for lc.Coord.Failovers() == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		// Heal the partition only after the takeover: the deposed shipper's
		// retransmits come back to a fenced cluster and must be rejected.
		p.Sleep(100 * time.Millisecond)
		lc.HealNode(lc.exLeader)
		if err := lc.RejoinAsStandby(p, lc.exLeader); err != nil {
			t.Errorf("rejoin: %v", err)
		}
	})
	if lc.Coord.Failovers() != 1 || lc.Coord.LastErr() != nil {
		t.Fatalf("failovers = %d, lastErr = %v", lc.Coord.Failovers(), lc.Coord.LastErr())
	}
	if lc.auditErr != nil {
		t.Fatalf("audit: %v", lc.auditErr)
	}
	if !lc.audit.Ok() {
		t.Fatalf("acked-op loss across partition takeover: %v", lc.audit)
	}
	rep := lc.Monitor.Report()
	if rep.ByKind["single_writer_epoch"] != 0 {
		t.Fatalf("split-brain under partition: %d", rep.ByKind["single_writer_epoch"])
	}
	// The deposed leader's stale-epoch retransmits after the heal must show
	// up as fencing rejections, not as applied entries.
	if fence := standingFence(t, lc.Cluster, lc.nodes[0].store.Name()); fence < lc.epoch {
		t.Fatalf("ex-leader store fenced at %d, cluster epoch %d", fence, lc.epoch)
	}
}

// standingFence asks a store, over the cluster's fabric, for the fence it
// stands at: a FenceMsg below a store's fence never raises it and is acked
// at the current one. It returns -1 if no ack comes within a second.
func standingFence(t *testing.T, c *Cluster, store string) int {
	t.Helper()
	fence := -1
	done := c.S.NewEvent("fence-probe.done")
	c.S.Spawn(nil, "fence-probe", func(p *sim.Proc) {
		defer done.Fire()
		ep := c.Fabric.Endpoint("fence-probe")
		ep.Send(store, ha.MsgBytes, replica.FenceMsg{From: "fence-probe"})
		if m, ok := ep.RecvUntil(p, p.Now().Add(time.Second)); ok {
			fence = m.Payload.(replica.FenceAck).Epoch
		}
	})
	if err := c.S.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	return fence
}

// TestClusterBrownoutFailsOver: AC comes back inside the hold-up. The power-
// fail interrupt has already halted the leader's RapiLog device for good,
// yet the machine never loses DC, so its agent keeps answering pings: with
// the heartbeat detector alone the cluster sat wedged, acking nothing. The
// interrupt's notice fails it over.
func TestClusterBrownoutFailsOver(t *testing.T) {
	var cutAt time.Duration
	var ackedAtRestore int
	var ex *Rig
	lc := runLoadedCluster(t, Config{Seed: 42}, 6600*time.Millisecond, func(p *sim.Proc, lc *loadedCluster) {
		p.Sleep(1500 * time.Millisecond)
		ex, cutAt = lc.LeaderRig(), p.Now().Duration()
		ex.Machine.CutPower()
		p.Sleep(100 * time.Millisecond)
		ex.Machine.RestorePower()
		ackedAtRestore = lc.j.Len()
	})
	if ex.Obs.Registry().Counter("power.dc_losses").Value() != 0 {
		t.Fatal("test premise: the deposed leader never lost DC")
	}
	if lc.Coord.Failovers() != 1 || lc.Coord.LastErr() != nil {
		t.Fatalf("failovers = %d (lastErr %v), want exactly 1", lc.Coord.Failovers(), lc.Coord.LastErr())
	}
	if first, ok := lc.dir.FirstSuccess(2); !ok || first <= cutAt {
		t.Fatalf("no commit on generation 2 after the brownout (first %v, ok %v)", first, ok)
	}
	if after := lc.j.Len() - ackedAtRestore; after == 0 {
		t.Fatal("nothing acked after the restore: the cluster is wedged")
	}
	if lc.auditErr != nil || !lc.audit.Ok() {
		t.Fatalf("audit: %v, err %v", lc.audit, lc.auditErr)
	}
	if rep := lc.Monitor.Report(); rep.Total != 0 {
		t.Fatalf("monitor violations across the brownout takeover: %+v", rep)
	}
}

// TestClusterMonitorWatchesThePromotedLeader: the cluster has one monitor,
// armed off node0's machine, and the promoted leader's shipper is the one
// whose retention matters after a takeover. The monitor used to read node0's
// registry gauge, so the promoted leader's retention was never checked: with
// node1's gauge held at 1 GiB for 2 s it found nothing. Retention now comes
// from whichever shipper's events hold the newest epoch. node0's store never
// acks again after the cut, so node1 retains everything it ships; a replay of
// the run with a 16 MiB limit must flag it, after the promotion, and the live
// verdict must be the replay's under the run's own contract.
func TestClusterMonitorWatchesThePromotedLeader(t *testing.T) {
	var promotedAt time.Duration
	lc := runLoadedCluster(t, Config{Seed: 42, TraceCapacity: 1 << 20}, 4*time.Second, func(p *sim.Proc, lc *loadedCluster) {
		p.Sleep(1500 * time.Millisecond)
		lc.CutLeaderPower()
		for lc.Coord.Failovers() == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		promotedAt = p.Now().Duration()
	})
	if lc.LeaderName() != "node1" {
		t.Fatalf("test premise: leadership passed to %s, want node1", lc.LeaderName())
	}
	tr := lc.Obs.Tracer()
	if tr.Dropped() != 0 {
		t.Fatalf("test premise: the ring dropped %d events", tr.Dropped())
	}
	events := tr.Events()
	contract := lc.nodes[0].rig.contract()
	live, replay := lc.Monitor.Report(), obs.RunMonitor(events, contract)
	if live.Total != replay.Total || !reflect.DeepEqual(live.ByKind, replay.ByKind) || !reflect.DeepEqual(live.Samples, replay.Samples) {
		t.Fatalf("live verdict %+v, replay %+v", live, replay)
	}

	contract.RetainLimit = 16 << 20
	rep := obs.RunMonitor(events, contract)
	if rep.ByKind[obs.InvRetention.String()] != 1 {
		t.Fatalf("the promoted leader's retention was not flagged against a 16 MiB limit: %+v", rep)
	}
	if v := rep.Samples[0]; v.At() <= promotedAt {
		t.Fatalf("retention flagged at %v, before the promotion at %v: %s", v.At(), promotedAt, v.Detail)
	} else {
		t.Logf("promoted at %v; at %v: %s", promotedAt, v.At(), v.Detail)
	}
}
