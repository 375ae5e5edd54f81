package rig

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
)

// ClusterConfig parameterises a highly-available deployment: N full
// machines on one fabric, one of them leading, the rest holding standby
// stores, with an ha.Coordinator watching the leader.
type ClusterConfig struct {
	// Nodes is the machine count; default 3 (leader + 2 standby stores).
	Nodes int
	// Rig is the per-node deployment template. Replicas is forced to
	// Nodes-1, and tracing on (the online monitor is the split-brain
	// detector). An AckLocal policy is forced up to AckQuorum(1): a local-ack
	// cluster has no safe takeover, since no census quorum intersects an
	// empty ack quorum.
	Rig Config
}

// Normalize resolves the cluster config in place, as Config.Normalize does a
// machine's: the cluster's own defaults, what it forces on every node and
// its own checks, then the node template's Config.Normalize. Idempotent.
func (c *ClusterConfig) Normalize() error {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	c.Rig.Replicas = c.Nodes - 1
	c.Rig.Trace = true
	c.Rig.Flight = true
	if !c.Rig.AckPolicy.Remote() {
		c.Rig.AckPolicy = core.AckQuorum(1)
	}
	if c.Rig.CheckpointEvery == 0 {
		// A follower rebuilds the leader's state from the replicated WAL
		// alone, and one built after a rejoin starts from the stream's
		// first record; a checkpoint that let the WAL recycle would leave
		// the stream unable to reproduce pre-checkpoint history on a fresh
		// machine. So cluster mode pins checkpoints far past any trial
		// horizon (ROADMAP item 2).
		c.Rig.CheckpointEvery = 24 * time.Hour
	}
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("rig: cluster needs at least 2 nodes, got %d", c.Nodes)
	case c.Rig.Shards != 0:
		return fmt.Errorf("rig: cluster nodes with sharded log domains are not supported yet (Rig.Shards = %d)", c.Rig.Shards)
	}
	return c.Rig.Normalize()
}

// clusterNode is one machine's slot in the cluster: its store is the
// always-on replica service; its rig is the machine it leads with, and
// while it does not lead, its warm follower keeps a machine of its own
// redoing the stream the store applies.
type clusterNode struct {
	name  string
	store *replica.Standby
	rig   *Rig      // the machine the node leads (or led) with; nil while it follows
	f     *follower // nil while it leads or led, and until its store first applies
}

// follower is a non-leading node's warm machine: a guest whose log disk is
// the raw log partition, and one self-clocked process that, round after
// round, writes the records its store applied since the last round into
// the partition (replica.Recover from the mirror cursor) and redoes them
// (engine.CatchUp). A promotion then replays and scans only the tail.
type follower struct {
	r      *Rig
	eng    *engine.Engine   // set once engine.Follow has run
	cursor replica.Position // the store's records through here are on the partition
	stop   *sim.Event       // fired by halt: ends the rest between rounds
	idle   *sim.Signal      // the process stopped working: resting, halted or failed
	busy   bool
	halted bool
	err    error
	phase  string // what the round in flight is doing: "mirror", "scan" or ""
	rounds int    // rounds whose redo is done
}

// followEvery is how long a follower rests after each round. Few, large
// rounds keep what a round costs regardless of its size — a positioning
// for its write and one for its scan, the partial tail block written and
// read again, the leader's working set pushed out of the host's caches —
// off the leader's serve window, and a promotion replays and scans at most
// this much of the stream past the winner's last round.
const followEvery = 200 * time.Millisecond

// Cluster is an assembled HA deployment. Exactly one node leads at a
// time; its Rig carries the full machine/logger/shipper stack. The other
// nodes run standby stores on the shared fabric, each with a warm follower
// once its store holds records. The coordinator fails the leader over on
// its power-fail notice or on silence; sessions follow via OnPromote.
type Cluster struct {
	Cfg    ClusterConfig
	S      *sim.Sim
	Obs    *obs.Obs
	Fabric *netsim.Fabric
	Coord  *ha.Coordinator

	// Monitor/Flight are the cluster-wide runtime verification stack; the
	// monitor's single-writer-per-epoch invariant is the split-brain
	// detector the failover campaigns audit.
	Monitor *obs.Monitor
	Flight  *obs.FlightRecorder

	// OnPromote, when set, is called after every successful promotion with
	// the new generation number, the new leader's name, the freshly booted
	// engine, and its guest domain — the hook the session directory
	// redirects through.
	OnPromote func(gen int, name string, e *engine.Engine, dom *sim.Domain)

	// LastReplay summarises the most recent promotion's replay: the suffix
	// past the winner's mirror cursor, and how far its follower lagged its
	// store when the fence went up.
	LastReplay replica.RecoverReport

	nodes      []*clusterNode
	leader     int
	epoch      int
	generation int
}

// NewCluster builds the fabric, the per-node standby stores, the initial
// leader's full rig on node 0, and the coordinator.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}

	s := sim.New(cfg.Rig.Seed)
	o := obs.New(obs.Config{TraceEnabled: true, TraceCapacity: cfg.Rig.TraceCapacity})
	c := &Cluster{Cfg: cfg, S: s, Obs: o, generation: 1}
	c.Fabric = netsim.New(s, netsim.Config{Seed: cfg.Rig.Seed + fabricSeedOffset, Link: cfg.Rig.Net, Reg: o.Registry(), Trace: o.Tracer()})

	rc := replica.Config{Reg: o.Registry(), Trace: o.Tracer()}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		n := &clusterNode{
			name:  name,
			store: replica.NewStandby(s, c.Fabric, name+".log", rc),
		}
		c.nodes = append(c.nodes, n)
		n.store.SetOnApply(func() { c.applied(i) })
	}

	// Node 0 leads first. Its own store is crashed while it leads: a
	// leader does not replicate to itself, and a store that kept acking
	// its own stream would let a one-node "quorum" survive the machine.
	r, err := c.buildNode(0, 0)
	if err != nil {
		return nil, err
	}
	if err := c.lead(0, r); err != nil {
		return nil, err
	}
	c.nodes[0].store.Crash()

	// One monitor for the whole cluster, armed off the initial leader's
	// machine (promoted nodes never arm their own): every node's events
	// flow through the shared tracer into the same invariant state.
	r.setupVerification()
	c.Monitor, c.Flight = r.Monitor, r.Flight

	c.Coord = ha.New(s, c.Fabric, c, ha.Config{Reg: o.Registry(), Trace: o.Tracer()})
	return c, nil
}

// Close ends the cluster's simulation (sim.Sim.Close): every node, the
// fabric and the coordinator go with it.
func (c *Cluster) Close() { c.S.Close() }

// buildNode assembles a node's machine and the storage half of its log
// domain on the cluster's simulation, fabric and peer stores. The logger
// comes with lead, so a follower can write the replicated stream into the
// raw log partition first.
func (c *Cluster) buildNode(idx, startEpoch int) (*Rig, error) {
	name := c.nodes[idx].name
	r := newMachine(c.Cfg.Rig, c.S, name+".machine", c.Obs.Sub(name))
	_, err := r.newLogDomain(r.Obs, site{
		prefix: name + ".", sharers: 1, endpoint: name,
		fabric: c.Fabric, stores: c.peerStoresOf(idx), epoch: startEpoch,
	})
	return r, err
}

// lead starts node idx's logger and shipper on the log partition as it
// stands (a follower's guest moves onto the logger), and makes the node the
// leader.
func (c *Cluster) lead(idx int, r *Rig) error {
	if err := r.assemblePlatform(); err != nil {
		return err
	}
	c.nodes[idx].rig = r
	c.leader = idx
	c.epoch = r.epoch
	c.spawnAgent(r, c.nodes[idx].name)
	return nil
}

// applied is node idx's store hook, run after every batch of records it
// applies: the first one builds the node's follower. A node that leads, or
// led and has not rejoined, follows nothing.
func (c *Cluster) applied(idx int) {
	if n := c.nodes[idx]; idx != c.leader && n.rig == nil && n.f == nil {
		n.f = c.follow(idx)
	}
}

// follow builds node idx's follower machine — the node's half of buildNode
// plus a guest on the raw log partition — and starts its process in the
// guest's domain. It takes no virtual time; the process's first act is
// engine.Follow against the fresh data partition.
func (c *Cluster) follow(idx int) *follower {
	name := c.nodes[idx].name
	f := &follower{
		stop: c.S.NewEvent(name + ".follower.stop"),
		idle: c.S.NewSignal(name + ".follower.idle"),
		busy: true,
	}
	r, err := c.buildNode(idx, 0)
	if err != nil {
		f.busy, f.err = false, err
		return f
	}
	r.Plat = r.HV.NewGuest(r.at.prefix+"db", r.LogDev, r.DataPart)
	f.r = r
	c.S.Spawn(r.Plat.Domain(), name+".follower", func(p *sim.Proc) {
		p.SetDaemon(true)
		defer func() {
			f.busy, f.phase = false, ""
			f.idle.Broadcast()
		}()
		f.err = f.run(p, c.nodes[idx].store)
	})
	return f
}

// run is the follower's process: engine.Follow, then a round and a rest of
// followEvery, until halted.
func (f *follower) run(p *sim.Proc, store *replica.Standby) error {
	eng, err := engine.Follow(p, f.r.Plat, f.r.EngineConfig())
	if err != nil {
		return err
	}
	f.eng = eng
	stores := []*replica.Standby{store}
	for !f.halted {
		f.phase = "mirror"
		rep, err := replica.Recover(p, stores, f.r.LogDev, f.cursor)
		if err != nil {
			return err
		}
		f.cursor = rep.Through
		if rep.Entries > 0 {
			f.phase = "scan"
			if err := eng.CatchUp(p, f.gained(rep)); err != nil {
				return err
			}
			f.rounds++
		}
		f.busy, f.phase = false, ""
		f.idle.Broadcast()
		f.stop.WaitTimeout(p, followEvery)
		f.busy = true
	}
	return nil
}

// gained bounds the log blocks a replay can have added past the engine's
// cursor: every block the partition gained since the last scan is in that
// replay's image, and each of its runs touches at most two blocks it does
// not fill.
func (f *follower) gained(rep replica.RecoverReport) int {
	spb := int64(f.r.Cfg.Personality.WalBlockSize / disk.SectorSize)
	return int(rep.Sectors/spb) + 2*rep.Runs
}

// halt stops the follower after the work in flight — engine.Follow or a
// round — and reports what made it fail, if anything did.
func (f *follower) halt(p *sim.Proc) error {
	f.halted = true
	f.stop.Fire()
	for f.busy {
		f.idle.Wait(p)
	}
	return f.err
}

// spawnAgent starts the leader's heartbeat responder in its hypervisor
// domain: it dies with the machine (power cut) and goes unreachable with
// it (isolation) — exactly the signals the failure detector keys on. The
// agent also owns the machine's power-fail interrupt: the moment the PSU
// warns, it tells the coordinator, which starts the takeover while the
// hold-up still runs instead of waiting for the pings to go unanswered.
func (c *Cluster) spawnAgent(r *Rig, name string) {
	ep := c.Fabric.Endpoint(name + ".ha")
	r.Machine.AddPowerFailHandler(func(*sim.Proc) {
		ep.Send(ha.CoordName, ha.MsgBytes, ha.PowerFail{From: name + ".ha"})
	})
	c.S.Spawn(r.HV.Domain(), name+".ha-agent", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			m := ep.Recv(p)
			if pg, ok := m.Payload.(ha.Ping); ok {
				ep.Send(m.From, ha.MsgBytes, ha.Pong{Seq: pg.Seq, From: name + ".ha"})
			}
		}
	})
}

// peerStoresOf returns every node's store except idx's own.
func (c *Cluster) peerStoresOf(idx int) []*replica.Standby {
	var out []*replica.Standby
	for i, n := range c.nodes {
		if i != idx {
			out = append(out, n.store)
		}
	}
	return out
}

func (c *Cluster) nodeByName(name string) int {
	for i, n := range c.nodes {
		if n.name == name {
			return i
		}
	}
	return -1
}

// LeaderName returns the current leader node's name.
func (c *Cluster) LeaderName() string { return c.nodes[c.leader].name }

// LeaderRig returns the current leader's rig.
func (c *Cluster) LeaderRig() *Rig { return c.nodes[c.leader].rig }

// --- ha.Cluster ---

// LeaderAgent implements ha.Cluster.
func (c *Cluster) LeaderAgent() string { return c.LeaderName() + ".ha" }

// LeaderPrimary implements ha.Cluster.
func (c *Cluster) LeaderPrimary() string { return c.LeaderName() }

// PeerStores implements ha.Cluster: the electorate.
func (c *Cluster) PeerStores() []string {
	var out []string
	for i, n := range c.nodes {
		if i != c.leader {
			out = append(out, n.store.Name())
		}
	}
	return out
}

// AllStores implements ha.Cluster: the fence targets.
func (c *Cluster) AllStores() []string {
	var out []string
	for _, n := range c.nodes {
		out = append(out, n.store.Name())
	}
	return out
}

// MaxEpoch implements ha.Cluster.
func (c *Cluster) MaxEpoch() int { return c.epoch }

// Quorum implements ha.Cluster: N−K+1 over the peer stores, the smallest
// census that provably intersects every ack quorum the deposed leader
// could have assembled.
func (c *Cluster) Quorum() int { return len(c.nodes) - 1 - c.Cfg.Rig.AckPolicy.K + 1 }

// Promote implements ha.Cluster: halt the winner's follower after its
// round in flight, replay into its log partition only the records past its
// mirror cursor (from every reachable store), start the logger + shipper at
// the fenced epoch under its guest, let its engine catch up to the log's
// end and lead (the checkpoint that folds the redone pages runs in the
// background once the engine serves), and publish the new generation. A
// winner whose store never applied a record, or whose follower failed,
// gets a fresh follower here, which halts after engine.Follow: the same
// path with no rounds behind it.
func (c *Cluster) Promote(p *sim.Proc, winnerStore string, epoch int) (int64, error) {
	idx := -1
	for i, n := range c.nodes {
		if n.store.Name() == winnerStore {
			idx = i
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("rig: promote: unknown store %q", winnerStore)
	}
	node := c.nodes[idx]
	f := node.f
	if f == nil || f.err != nil {
		f = c.follow(idx)
	}
	node.f = nil
	applied := node.store.Position()
	lag, lagBytes := node.store.Since(f.cursor)
	if err := f.halt(p); err != nil {
		return 0, fmt.Errorf("promotion follower: %w", err)
	}

	// Replay from every reachable store — the per-epoch best prefix is a
	// superset of the winner's own (the election already proved the winner
	// maximal among a quorum; extra unacked suffix from any store is the
	// same single writer's stream, so replaying more is strictly safe).
	var srcs []*replica.Standby
	for _, n := range c.nodes {
		if n.store.Alive() && !c.Fabric.Isolated(n.store.Name()) {
			srcs = append(srcs, n.store)
		}
	}
	rr, err := replica.Recover(p, srcs, f.r.LogDev, f.cursor)
	if err != nil {
		return 0, err
	}
	rr.Applied, rr.Lag, rr.LagBytes = applied, lag, lagBytes
	c.LastReplay = rr

	f.r.epoch = epoch - 1
	if err := c.lead(idx, f.r); err != nil {
		return rr.Bytes, err
	}

	// Lead in the guest domain, like any boot; the coordinator waits so a
	// takeover is not "done" until the engine serves.
	booted := c.S.NewEvent(node.name + ".booted")
	var bootErr error
	c.S.Spawn(f.r.Plat.Domain(), node.name+".db", func(bp *sim.Proc) {
		defer booted.Fire()
		if err := f.eng.Lead(bp, f.gained(rr)); err != nil {
			bootErr = err
			return
		}
		c.generation++
		if c.OnPromote != nil {
			c.OnPromote(c.generation, node.name, f.eng, f.r.Plat.Domain())
		}
	})
	booted.Wait(p)
	if bootErr != nil {
		return rr.Bytes, fmt.Errorf("promotion boot: %w", bootErr)
	}
	return rr.Bytes, nil
}

// --- campaign fault surface ---

// CutLeaderPower pulls the leader machine's plug; returns the sampled
// hold-up. The agent's power-fail notice starts the takeover at once; the
// agent itself dies with the hypervisor domain when the hold-up ends.
func (c *Cluster) CutLeaderPower() time.Duration {
	return c.LeaderRig().Machine.CutPower()
}

// IsolateLeader partitions the leader from the fabric: its shipper and
// heartbeat endpoints go dark (its own store is already crashed/isolated
// while it leads).
func (c *Cluster) IsolateLeader() {
	name := c.LeaderName()
	c.Fabric.Isolate(name, name+".ha")
}

// HealNode restores a node's shipper and agent endpoints after an
// isolation.
func (c *Cluster) HealNode(name string) {
	c.Fabric.Restore(name, name+".ha")
}

// RejoinAsStandby demotes a deposed ex-leader into a standby: its shipper
// is stopped (releasing every retained buffer and killing its daemons —
// the epoch is fenced, so the stream could never ack again anyway), its
// guest is crashed, its machine is dropped, and its store restarts fenced
// at the current epoch. The acked-local-but-not-quorum suffix in that
// machine's buffer and log partition is structurally truncated: nothing
// ever reads it again. The store's next batch builds the node a fresh
// follower, which mirrors the whole stream the store holds.
func (c *Cluster) RejoinAsStandby(p *sim.Proc, name string) error {
	idx := c.nodeByName(name)
	if idx < 0 {
		return fmt.Errorf("rig: rejoin: unknown node %q", name)
	}
	if idx == c.leader {
		return fmt.Errorf("rig: rejoin: %s is the current leader", name)
	}
	node := c.nodes[idx]
	if node.rig != nil {
		if node.rig.Shipper != nil {
			node.rig.Shipper.Stop()
		}
		node.rig.Plat.Crash()
		node.rig = nil
	}
	node.store.Restart()
	// Fence before the store can ack anything: a crashed store missed the
	// takeover's fence broadcast, and the deposed epoch's retransmits must
	// not find an unfenced inbox.
	c.Coord.FenceNode(p, node.store.Name())
	return nil
}
