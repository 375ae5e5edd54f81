package ha

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
)

// fakeCluster is the coordinator's view of a 3-node deployment with real
// standby stores on a real fabric and nothing else: no machines, disks or
// engines. Promotion is recorded, not performed.
type fakeCluster struct {
	t      *testing.T
	s      *sim.Sim
	fab    *netsim.Fabric
	o      *obs.Obs
	nodes  []string
	stores map[string]*replica.Standby // by node name
	agents map[string]*sim.Domain      // by node name
	leader string
	epoch  int
	quorum int

	promoted   []string // winner store per Promote call
	promotedAt []sim.Time
	epochs     []int      // fence epoch per Promote call
	takeoverAt []sim.Time // when each takeover began: its Quorum() call
}

func newFakeCluster(t *testing.T) *fakeCluster {
	s := sim.New(7)
	t.Cleanup(s.Close)
	o := obs.New(obs.Config{TraceEnabled: true})
	c := &fakeCluster{
		t: t, s: s, o: o, nodes: []string{"node0", "node1", "node2"},
		fab:    netsim.New(s, netsim.Config{Seed: 9, Reg: o.Registry(), Trace: o.Tracer()}),
		stores: map[string]*replica.Standby{}, agents: map[string]*sim.Domain{},
		leader: "node0", epoch: 1, quorum: 2,
	}
	for _, n := range c.nodes {
		c.stores[n] = replica.NewStandby(s, c.fab, n+".log", replica.Config{Reg: o.Registry(), Trace: o.Tracer()})
	}
	c.stores["node0"].Crash() // a leader does not replicate to itself
	c.startAgent("node0")
	return c
}

// startAgent answers the coordinator's pings on <node>.ha until its domain
// is killed.
func (c *fakeCluster) startAgent(node string) {
	ep, dom := c.fab.Endpoint(node+".ha"), c.s.NewDomain(node+".agent")
	c.agents[node] = dom
	c.s.Spawn(dom, node+".ha-agent", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			m := ep.Recv(p)
			if pg, ok := m.Payload.(Ping); ok {
				ep.Send(m.From, MsgBytes, Pong{Seq: pg.Seq, From: node + ".ha"})
			}
		}
	})
}

// feed ships records 1..upTo of one epoch from the leader's endpoint, so the
// store's applied prefix for that epoch is dense up to upTo.
func (c *fakeCluster) feed(node string, epoch int, upTo uint64) {
	for seq := uint64(1); seq <= upTo; seq++ {
		c.fab.Send(c.leader, node+".log", 64, replica.Record{Epoch: epoch, Seq: seq, Lba: int64(seq), Data: []byte{byte(seq)}})
	}
}

func (c *fakeCluster) coordinator() *Coordinator {
	return New(c.s, c.fab, c, Config{Reg: c.o.Registry(), Trace: c.o.Tracer()})
}

func (c *fakeCluster) elections() int64 { return c.o.Registry().Counter("ha.elections").Value() }

func (c *fakeCluster) LeaderAgent() string   { return c.leader + ".ha" }
func (c *fakeCluster) LeaderPrimary() string { return c.leader }
func (c *fakeCluster) MaxEpoch() int         { return c.epoch }

// Quorum is the first thing a takeover asks, so it stamps the takeover's
// start.
func (c *fakeCluster) Quorum() int {
	c.takeoverAt = append(c.takeoverAt, c.s.Now())
	return c.quorum
}

func (c *fakeCluster) PeerStores() []string {
	var out []string
	for _, n := range c.nodes {
		if n != c.leader {
			out = append(out, n+".log")
		}
	}
	return out
}

func (c *fakeCluster) AllStores() []string {
	var out []string
	for _, n := range c.nodes {
		out = append(out, n+".log")
	}
	return out
}

func (c *fakeCluster) Promote(p *sim.Proc, winnerStore string, epoch int) (int64, error) {
	c.promoted = append(c.promoted, winnerStore)
	c.promotedAt = append(c.promotedAt, p.Now())
	c.epochs = append(c.epochs, epoch)
	c.leader, c.epoch = strings.TrimSuffix(winnerStore, ".log"), epoch
	c.startAgent(c.leader)
	return 0, nil
}

// mark returns when the trace first shows kind, failing the test if never.
func (c *fakeCluster) mark(kind obs.Kind) time.Duration {
	c.t.Helper()
	for _, e := range c.o.Tracer().Events() {
		if e.Kind == kind {
			return e.At
		}
	}
	c.t.Fatalf("no %v in the trace", kind)
	return 0
}

func (c *fakeCluster) run(d time.Duration) {
	c.t.Helper()
	if err := c.s.RunFor(d); err != nil {
		c.t.Fatal(err)
	}
}

func TestNoElectionWhileTheLeaderAnswers(t *testing.T) {
	c := newFakeCluster(t)
	co := c.coordinator()
	c.run(3 * time.Second) // 150 heartbeats, 25 failAfter windows
	if c.elections() != 0 || len(c.promoted) != 0 || co.Failovers() != 0 || co.LastErr() != nil {
		t.Fatalf("healthy leader: %d elections, promoted %v, %d failovers, err %v",
			c.elections(), c.promoted, co.Failovers(), co.LastErr())
	}
}

// The winner is the store with the highest (epoch, seq) applied prefix —
// epoch first — and the smallest name among equals; the takeover starts only
// after failAfter of silence.
func TestTakeoverElectsTheBestPrefix(t *testing.T) {
	cases := []struct {
		name       string
		node1Epoch int
		node1Seq   uint64
		node2Epoch int
		node2Seq   uint64
		want       string
	}{
		{"longer prefix wins", 1, 5, 1, 9, "node2.log"},
		{"newer epoch beats a longer prefix", 2, 1, 1, 9, "node1.log"},
		{"smallest name breaks a tie", 1, 5, 1, 5, "node1.log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newFakeCluster(t)
			c.feed("node1", tc.node1Epoch, tc.node1Seq)
			c.feed("node2", tc.node2Epoch, tc.node2Seq)
			co := c.coordinator()
			const killAt = 500 * time.Millisecond
			c.s.Spawn(nil, "op", func(p *sim.Proc) {
				p.Sleep(killAt)
				c.agents["node0"].Kill()
			})
			c.run(3 * time.Second)
			if len(c.promoted) != 1 || c.promoted[0] != tc.want || co.Failovers() != 1 || co.LastErr() != nil {
				t.Fatalf("promoted %v (failovers %d, err %v), want exactly [%s]", c.promoted, co.Failovers(), co.LastErr(), tc.want)
			}
			silence := c.promotedAt[0].Duration() - killAt
			if silence <= failAfter-heartbeatEvery || silence > failAfter+2*heartbeatEvery+roundTimeout {
				t.Fatalf("promoted %v after the leader went silent, want just past failAfter %v", silence, failAfter)
			}
			if c.elections() != 1 {
				t.Fatalf("%d elections for one leader loss", c.elections())
			}
		})
	}
}

// The fence epoch is past every epoch the cluster or any store has seen, every
// store ends up fenced there, and a stale or duplicate FenceMsg never lowers
// a fence — it is re-acked at the current one.
func TestFenceEpochExceedsEverythingAndIsMonotone(t *testing.T) {
	c := newFakeCluster(t)
	c.epoch = 3
	c.feed("node1", 5, 2) // a store that has seen a newer epoch than the cluster admits to
	c.feed("node2", 3, 4)
	co := c.coordinator()
	reAcks := 0
	c.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(200 * time.Millisecond)
		c.agents["node0"].Kill()
		for co.Failovers() == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		ep := c.fab.Endpoint("late")
		for _, store := range []string{"node1.log", "node2.log"} {
			for _, e := range []int{2, c.epochs[0]} { // stale, then duplicate
				ep.Send(store, MsgBytes, replica.FenceMsg{Epoch: e, From: "late"})
				ack := ep.Recv(p).Payload.(replica.FenceAck)
				if ack.From != store || ack.Epoch != c.epochs[0] {
					t.Errorf("FenceMsg{%d} to %s re-acked %+v, want the standing fence %d", e, store, ack, c.epochs[0])
				}
				reAcks++
			}
		}
	})
	c.run(3 * time.Second)
	if len(c.epochs) != 1 || c.promoted[0] != "node1.log" {
		t.Fatalf("promotions %v at %v, want node1.log once", c.promoted, c.epochs)
	}
	if got := c.epochs[0]; got != 6 {
		t.Fatalf("fence epoch %d, want 6: one past the newest epoch any store applied (5), not MaxEpoch+1 (4)", got)
	}
	if reAcks != 4 {
		t.Fatalf("%d of 4 stale or duplicate fences re-acked", reAcks)
	}
	// Fenced stores reject the deposed epochs' records.
	before := c.stores["node2"].AppliedSeq(3)
	c.feed("node2", 3, 9)
	c.run(100 * time.Millisecond)
	if got := c.stores["node2"].AppliedSeq(3); got != before {
		t.Fatalf("fenced store applied a stale-epoch record: %d → %d", before, got)
	}
}

// A census that cannot reach Quorum() stores must not elect on what it has:
// the missing store may hold the only copy of an acked commit.
func TestShortCensusNeverPromotes(t *testing.T) {
	c := newFakeCluster(t)
	c.feed("node1", 1, 5)
	c.feed("node2", 1, 9)
	co := c.coordinator()
	c.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		c.stores["node2"].Crash()
		c.agents["node0"].Kill()
	})
	c.run(5 * time.Second)
	if len(c.promoted) != 0 || co.Failovers() != 0 {
		t.Fatalf("promoted %v on a census of 1 with quorum 2", c.promoted)
	}
	if err := co.LastErr(); err == nil || !strings.Contains(err.Error(), "census") {
		t.Fatalf("LastErr = %v, want the short census", err)
	}
	if c.elections() != 1 {
		t.Fatalf("%d elections, want the one stuck takeover", c.elections())
	}
	// The missing store comes back: the same takeover completes, electing it
	// on its longer prefix.
	c.stores["node2"].Restart()
	c.run(time.Second)
	if len(c.promoted) != 1 || c.promoted[0] != "node2.log" || co.LastErr() != nil {
		t.Fatalf("after the store returned: promoted %v, err %v", c.promoted, co.LastErr())
	}
}

// A power-fail notice from the current leader's agent starts the takeover as
// it arrives, although the agent still answers every ping;
// one from any other sender — a node that does not lead, an unknown agent,
// the leader the notice already deposed — starts none.
func TestPowerFailNoticeStartsTakeover(t *testing.T) {
	c := newFakeCluster(t)
	c.feed("node1", 1, 5)
	c.feed("node2", 1, 9)
	co := c.coordinator()
	notice := func(from string) { c.fab.Send(from, CoordName, MsgBytes, PowerFail{From: from}) }
	const noticeAt = 500 * time.Millisecond
	var stray int64
	c.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(noticeAt - 200*time.Millisecond)
		notice("node1.ha")
		notice("stranger.ha")
		p.Sleep(200 * time.Millisecond)
		stray = c.elections()
		notice("node0.ha")
		for co.Failovers() == 0 {
			p.Sleep(time.Millisecond)
		}
		p.Sleep(100 * time.Millisecond)
		notice("node0.ha") // deposed: its agent lives on, and so may its notice
	})
	c.run(3 * time.Second)
	if stray != 0 {
		t.Fatalf("%d elections on notices from agents that do not lead", stray)
	}
	if len(c.promoted) != 1 || c.promoted[0] != "node2.log" || co.Failovers() != 1 || c.elections() != 1 {
		t.Fatalf("promoted %v in %d elections, want node2.log once", c.promoted, c.elections())
	}
	if took := c.promotedAt[0].Duration() - noticeAt; took > 2*time.Millisecond {
		t.Fatalf("promoted %v after the notice, want within 2ms: delivery plus two message round trips", took)
	}
}

// A notice that lands between two heartbeat ticks is acted on at once: the
// election follows the cut by the notice's flight and one census round
// trip, and the fence by one more round trip — each round returns when its
// last needed answer arrives, not at a polling step.
func TestPowerFailMidTickElectsWithinTwoMilliseconds(t *testing.T) {
	c := newFakeCluster(t)
	c.feed("node1", 1, 5)
	c.feed("node2", 1, 9)
	co := c.coordinator()
	const cutAt = 510 * time.Millisecond // halfway between the 500 and 520 ms ticks
	c.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(cutAt)
		c.fab.Send("node0.ha", CoordName, MsgBytes, PowerFail{From: "node0.ha"})
	})
	c.run(time.Second)
	if co.Failovers() != 1 || c.promoted[0] != "node2.log" {
		t.Fatalf("promoted %v in %d failovers, want node2.log once", c.promoted, co.Failovers())
	}
	elect, fence := c.mark(obs.EvElect), c.mark(obs.EvFence)
	if d := elect - cutAt; d < 0 || d > 2*time.Millisecond {
		t.Fatalf("elected %v after the cut, want within 2ms", d)
	}
	if d := fence - elect; d >= time.Millisecond {
		t.Fatalf("elect → fence took %v, want under 1ms: one fence round trip", d)
	}
}

// With no notice, detection is the heartbeat's alone and keeps its tick
// grid: pings every 20 ms, a pong counted at the tick after it arrives, and
// the takeover starting at the first tick more than failAfter past the last
// counted pong. An agent killed at 510 ms answered the 500 ms ping (counted
// at 520 ms) and no other, so the takeover begins at 660 ms.
func TestSilenceDetectedOnTheHeartbeatGrid(t *testing.T) {
	c := newFakeCluster(t)
	c.feed("node1", 1, 5)
	c.feed("node2", 1, 9)
	co := c.coordinator()
	c.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(510 * time.Millisecond)
		c.agents["node0"].Kill()
	})
	c.run(time.Second)
	if co.Failovers() != 1 || len(c.takeoverAt) != 1 {
		t.Fatalf("%d failovers from %d takeovers, want one", co.Failovers(), len(c.takeoverAt))
	}
	if got, want := c.takeoverAt[0].Duration(), 660*time.Millisecond; got != want {
		t.Fatalf("takeover began at %v, want %v", got, want)
	}
}
