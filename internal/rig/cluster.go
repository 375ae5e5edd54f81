package rig

import (
	"fmt"
	"time"

	"repro/internal/core"
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
	// HA parameterises the coordinator (heartbeat cadence, failure
	// detection window, round timeouts).
	HA ha.Config
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
		// Promotion rebuilds the leader's state from the replicated WAL
		// alone; a checkpoint that let the WAL recycle would leave the
		// stream unable to reproduce pre-checkpoint history on a fresh
		// machine. Until snapshot-based catch-up ships (see ROADMAP),
		// cluster mode pins checkpoints far past any trial horizon, and a
		// promoted node recovers from the whole log, read at streaming
		// bandwidth.
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
// always-on replica service, its rig exists only while (or after) the node
// leads.
type clusterNode struct {
	name  string
	store *replica.Standby
	rig   *Rig // nil until first promoted (or initial leader)
}

// Cluster is an assembled HA deployment. Exactly one node leads at a
// time; its Rig carries the full machine/logger/shipper stack. The other
// nodes run standby stores on the shared fabric. The coordinator fails
// the leader over on its power-fail notice or on silence; sessions follow
// via OnPromote.
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

	// LastReplay summarises the most recent promotion's prefix replay.
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
		c.nodes = append(c.nodes, &clusterNode{
			name:  name,
			store: replica.NewStandby(s, c.Fabric, name+".log", rc),
		})
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

	hc := cfg.HA
	hc.Reg = o.Registry()
	hc.Trace = o.Tracer()
	c.Coord = ha.New(s, c.Fabric, c, hc)
	return c, nil
}

// Close ends the cluster's simulation (sim.Sim.Close): every node, the
// fabric and the coordinator go with it.
func (c *Cluster) Close() { c.S.Close() }

// buildNode assembles a node's machine and the storage half of its log
// domain on the cluster's simulation, fabric and peer stores. The platform
// comes with lead, so promotion can replay the replicated prefix into the
// log partition first.
func (c *Cluster) buildNode(idx, startEpoch int) (*Rig, error) {
	name := c.nodes[idx].name
	r := newMachine(c.Cfg.Rig, c.S, name+".machine", c.Obs.Sub(name))
	_, err := r.newLogDomain(r.Obs, site{
		prefix: name + ".", sharers: 1, endpoint: name,
		fabric: c.Fabric, stores: c.peerStoresOf(idx), epoch: startEpoch,
	})
	return r, err
}

// lead starts node idx's logger, shipper and guest on the log partition as
// it stands, and makes the node the leader.
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

// Generation returns the leadership generation (1 = the initial leader).
func (c *Cluster) Generation() int { return c.generation }

// Store returns node idx's standby store (testing and campaigns).
func (c *Cluster) Store(idx int) *replica.Standby { return c.nodes[idx].store }

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

// Promote implements ha.Cluster: build a fresh machine stack on the
// winner, replay the replicated prefix into its log partition, start the
// logger + shipper at the fenced epoch, boot the engine (full-WAL
// recovery against an empty data partition: a scan of the log that keeps
// its next extent queued behind the one in transfer, so it runs at track
// bandwidth, and redo into the pool; the checkpoint that folds the redone
// pages runs in the background once the engine serves), and publish the
// new generation. Nearly all of a takeover is spent here, on the disk.
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
	r, err := c.buildNode(idx, epoch-1)
	if err != nil {
		return 0, err
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
	rr, err := replica.Recover(p, srcs, r.LogDev)
	if err != nil {
		return 0, err
	}
	c.LastReplay = rr

	if err := c.lead(idx, r); err != nil {
		return rr.Bytes, err
	}

	// Boot in the guest domain, like any other first boot; the
	// coordinator waits so a takeover is not "done" until the engine
	// serves.
	booted := c.S.NewEvent(node.name + ".booted")
	var bootErr error
	c.S.Spawn(r.Plat.Domain(), node.name+".db", func(bp *sim.Proc) {
		defer booted.Fire()
		e, err := r.Boot(bp)
		if err != nil {
			bootErr = err
			return
		}
		c.generation++
		if c.OnPromote != nil {
			c.OnPromote(c.generation, node.name, e, r.Plat.Domain())
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
// guest is crashed, and its store restarts empty and fenced at the
// current epoch. The acked-local-but-not-quorum suffix in its machine's
// buffer and log partition is structurally truncated: nothing ever reads
// it again, and the store catches up from the live epoch's stream.
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
	}
	node.store.Restart()
	// Fence before the store can ack anything: a crashed store missed the
	// takeover's fence broadcast, and the deposed epoch's retransmits must
	// not find an unfenced inbox.
	c.Coord.FenceNode(p, node.store.Name())
	return nil
}
