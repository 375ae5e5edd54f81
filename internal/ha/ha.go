// Package ha is the high-availability control plane: a deterministic,
// seeded failure detector and promotion coordinator that runs over the
// same simulated fabric the log stream uses. A leader whose PSU raises
// the power-fail interrupt says so at once (PowerFail), hundreds of
// milliseconds before its DC dies; the coordinator also heartbeats the
// current leader's agent endpoint as the backstop for a notice that never
// comes — isolation, a crashed agent, a coordinator that was down when it
// was sent. On either signal it runs an epoch-fenced takeover:
//
//  1. Census.  StateReq every reachable standby store; wait for at least
//     N−K+1 responses, the quorum that provably intersects every ack
//     quorum the deposed leader could have used. Without it a standby
//     holding the only copy of an acked commit could be missing from the
//     electorate and the acked prefix silently lost.
//  2. Election. The winner is the store with the highest (epoch, seq)
//     applied prefix — cumulative acks make every applied prefix dense,
//     so lexicographic comparison is exact, not heuristic.
//  3. Fencing.  Bump the epoch past everything any store has seen and
//     broadcast the fence. Every store rejects records and acks from
//     older epochs from the moment it fence-acks; the deposed primary's
//     shipper (if still alive — an isolation, not a crash) is fenced
//     too, so it can never again assemble an ack quorum. Promotion waits
//     for fence-acks from the winner plus a quorum.
//  4. Promotion. Hand the cluster callback the winner and the fenced
//     epoch: it replays the winner's prefix into a fresh engine/WAL
//     stack and starts a new shipper at the fenced epoch.
//
// The coordinator lives in its own failure domain: it can crash and
// restart independently of every node (the composed campaign does
// exactly that) and resumes its detector from durable-enough state —
// the cluster interface — not from anything on a node.
package ha

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
)

// Cluster is the coordinator's view of the deployment it guards. The rig
// layer implements it; ha stays free of any dependency on machines,
// disks or engines.
type Cluster interface {
	// LeaderAgent is the current leader's heartbeat endpoint.
	LeaderAgent() string
	// LeaderPrimary is the current leader's shipper endpoint — the fence
	// target that deposes a still-running primary.
	LeaderPrimary() string
	// PeerStores lists the standby store endpoints of every non-leader
	// node: the electorate.
	PeerStores() []string
	// AllStores lists every node's store endpoint: the fence targets.
	AllStores() []string
	// MaxEpoch is the highest shipper epoch the cluster has started.
	MaxEpoch() int
	// Quorum is how many census responses and fence acks a takeover
	// needs: N−K+1 over the peer stores.
	Quorum() int
	// Promote makes the winner the leader at the fenced epoch and
	// returns how many bytes of prefix the promotion replayed.
	Promote(p *sim.Proc, winnerStore string, epoch int) (int64, error)
}

// CoordName is the coordinator's fabric endpoint (and crash domain): where
// a leader's agent sends its PowerFail notice.
const CoordName = "ha.coord"

// The detector's and the takeover's timings.
const (
	// heartbeatEvery is the ping cadence.
	heartbeatEvery = 20 * time.Millisecond
	// failAfter is how long the leader may stay silent before a takeover
	// begins: six missed heartbeats.
	failAfter = 120 * time.Millisecond
	// roundTimeout bounds one census/fence round before unanswered
	// requests are resent.
	roundTimeout = 30 * time.Millisecond
)

// Config wires the coordinator to the node's instruments.
type Config struct {
	Reg   *obs.Registry
	Trace *obs.Tracer
}

// Ping is a coordinator→leader liveness probe; Pong is the agent's reply.
type (
	Ping struct {
		Seq  uint64
		From string
	}
	Pong struct {
		Seq  uint64
		From string
	}
)

// PowerFail is a leader agent's power-fail notice: its machine lost AC and
// is riding the PSU hold-up. The RapiLog device halts at the same
// interrupt, so nothing the leader acks from here on is new.
type PowerFail struct{ From string }

// MsgBytes is the wire size charged for control-plane messages.
const MsgBytes = 24

// Coordinator is the failure detector + takeover driver.
type Coordinator struct {
	s   *sim.Sim
	fab *netsim.Fabric
	cl  Cluster
	tr  *obs.Tracer

	dom *sim.Domain
	ep  *netsim.Endpoint

	elections *metrics.Counter
	promoteB  *metrics.Counter

	failovers int
	lastErr   error
}

// New builds a coordinator on its own sim-level domain (it is not part of
// any machine) and starts the detector loop.
func New(s *sim.Sim, fab *netsim.Fabric, cl Cluster, cfg Config) *Coordinator {
	co := &Coordinator{
		s: s, fab: fab, cl: cl, tr: cfg.Trace,
		ep:        fab.Endpoint(CoordName),
		elections: cfg.Reg.Counter("ha.elections"),
		promoteB:  cfg.Reg.Counter("ha.promote_replay_bytes"),
	}
	co.start()
	return co
}

// Failovers returns how many takeovers completed.
func (co *Coordinator) Failovers() int { return co.failovers }

// LastErr returns why the most recent takeover has not completed — a census
// still short of its quorum, a failed promotion — and nil once one has.
func (co *Coordinator) LastErr() error { return co.lastErr }

// Crash kills the coordinator — detector and any in-flight takeover die.
// Node failures during the outage go unhandled until Restart.
func (co *Coordinator) Crash() {
	if co.dom != nil {
		co.dom.Kill()
	}
	co.fab.Isolate(CoordName)
}

// Restart revives a crashed coordinator with a fresh detector. Replies to
// pre-crash requests may still arrive; the census and fence loops tolerate
// duplicates, and stale pongs are filtered by the current leader's name.
func (co *Coordinator) Restart() {
	for {
		if _, ok := co.ep.TryRecv(); !ok {
			break
		}
	}
	co.fab.Restore(CoordName)
	co.start()
}

func (co *Coordinator) start() {
	co.dom = co.s.NewDomain(CoordName)
	co.s.Spawn(co.dom, CoordName, co.run)
}

// run is the detector. It pings the leader once per heartbeatEvery and
// declares it dead after failAfter without a pong, judged at the ping
// ticks; between ticks it waits on its inbox, so the leader's PowerFail
// notice starts the takeover the moment it arrives. A pong counts as of
// the tick after its arrival, so silence is measured on the ping grid
// alone.
func (co *Coordinator) run(p *sim.Proc) {
	p.SetDaemon(true)
	lastPong := p.Now()
	next := lastPong.Add(heartbeatEvery)
	var seq uint64
	for {
		m, ok := co.ep.RecvUntil(p, next)
		if ok {
			// Only the current leader's messages count: a deposed leader
			// answering late must not mask the new one going dark, and its
			// late notice must not depose the new one.
			leader := co.cl.LeaderAgent()
			switch msg := m.Payload.(type) {
			case Pong:
				if msg.From == leader {
					lastPong = next
				}
			case PowerFail:
				if msg.From == leader {
					co.failover(p)
					lastPong = p.Now()
					next = lastPong.Add(heartbeatEvery)
				}
			}
			continue
		}
		seq++
		co.ep.Send(co.cl.LeaderAgent(), MsgBytes, Ping{Seq: seq, From: CoordName})
		if p.Now().Sub(lastPong) > failAfter {
			co.failover(p)
			lastPong = p.Now()
		}
		next = p.Now().Add(heartbeatEvery)
	}
}

// failover runs one census→elect→fence→promote takeover. Census and fence
// rounds resend until satisfied: the quorum requirement is a safety bar,
// not a liveness bet, and the detector cannot proceed without it.
func (co *Coordinator) failover(p *sim.Proc) {
	co.elections.Inc()
	span := co.tr.NewSpan()
	need := co.cl.Quorum()
	peers := co.cl.PeerStores()

	// Census: at least `need` applied-prefix reports.
	states := make(map[string]replica.StateResp)
	for len(states) < need {
		for _, pn := range peers {
			if _, ok := states[pn]; !ok {
				co.ep.Send(pn, MsgBytes, replica.StateReq{From: CoordName})
			}
		}
		co.collect(p, func(payload any) {
			if sr, ok := payload.(replica.StateResp); ok {
				states[sr.From] = sr
			}
		}, func() bool { return len(states) >= need })
		if len(states) < need {
			// Not an error the takeover gives up on — but the reason a stuck
			// one is stuck.
			co.lastErr = fmt.Errorf("ha: census short of quorum: %d of the %d stores needed answered", len(states), need)
		}
	}

	// Election: highest (epoch, seq) wins; ties break on name so every
	// replay of the same trial elects the same node.
	var winner string
	var wEpoch int
	var wSeq uint64
	maxEpoch := co.cl.MaxEpoch()
	for _, pn := range peers {
		sr, ok := states[pn]
		if !ok {
			continue
		}
		if sr.Fenced-1 > maxEpoch {
			maxEpoch = sr.Fenced - 1
		}
		e, q := bestPrefix(sr)
		if e > maxEpoch {
			maxEpoch = e
		}
		if winner == "" || e > wEpoch || (e == wEpoch && (q > wSeq || (q == wSeq && pn < winner))) {
			winner, wEpoch, wSeq = pn, e, q
		}
	}
	epoch := maxEpoch + 1
	co.tr.Emit(p.Now().Duration(), obs.EvElect, span, 0, co.tr.Label(winner), int64(wSeq))

	// Fence: the winner must be fenced (it is about to be promoted over
	// the deposed stream) plus a full quorum of the electorate — only peer
	// acks count, since the intersection argument is over the stores the
	// deposed leader could have assembled an ack quorum from. Every store
	// and the deposed primary get the fence regardless, best-effort — the
	// primary may be dead, and if it is merely isolated its acks are
	// unassemblable once a quorum of stores is fenced.
	peerSet := make(map[string]bool, len(peers))
	for _, pn := range peers {
		peerSet[pn] = true
	}
	acks := make(map[string]bool)
	for !acks[winner] || len(acks) < need {
		for _, pn := range co.cl.AllStores() {
			if !acks[pn] {
				co.ep.Send(pn, MsgBytes, replica.FenceMsg{Epoch: epoch, From: CoordName})
			}
		}
		co.ep.Send(co.cl.LeaderPrimary(), MsgBytes, replica.FenceMsg{Epoch: epoch, From: CoordName})
		co.collect(p, func(payload any) {
			if fa, ok := payload.(replica.FenceAck); ok && fa.Epoch >= epoch && peerSet[fa.From] {
				acks[fa.From] = true
			}
		}, func() bool { return acks[winner] && len(acks) >= need })
	}
	co.tr.Emit(p.Now().Duration(), obs.EvFence, 0, span, int64(epoch), int64(len(acks)))

	bytes, err := co.cl.Promote(p, winner, epoch)
	if err != nil {
		co.lastErr = fmt.Errorf("ha: promote %s at epoch %d: %w", winner, epoch, err)
		return
	}
	co.promoteB.Add(bytes)
	co.failovers++
	co.lastErr = nil
	co.tr.Emit(p.Now().Duration(), obs.EvPromote, 0, span, co.tr.Label(winner), bytes)
}

// collect feeds every payload the coordinator inbox receives within one
// roundTimeout to sink, returning as soon as done() is satisfied.
func (co *Coordinator) collect(p *sim.Proc, sink func(any), done func() bool) {
	deadline := p.Now().Add(roundTimeout)
	for !done() {
		m, ok := co.ep.RecvUntil(p, deadline)
		if !ok {
			return
		}
		sink(m.Payload)
	}
}

// FenceNode fences one store at the cluster's current epoch and waits for
// its ack: the rejoin path for a node that was down when the takeover's
// fence broadcast went out, closing the window where a deposed shipper's
// retransmits could still find an unfenced store. It runs on the caller's
// process with its own reply endpoint, so it never races the detector
// loop for the coordinator's inbox.
func (co *Coordinator) FenceNode(p *sim.Proc, store string) {
	epoch := co.cl.MaxEpoch()
	name := CoordName + ".rejoin"
	ep := co.fab.Endpoint(name)
	for {
		ep.Send(store, MsgBytes, replica.FenceMsg{Epoch: epoch, From: name})
		deadline := p.Now().Add(roundTimeout)
		for {
			m, ok := ep.RecvUntil(p, deadline)
			if !ok {
				break
			}
			if fa, ok := m.Payload.(replica.FenceAck); ok && fa.From == store && fa.Epoch >= epoch {
				return
			}
		}
	}
}

// bestPrefix reduces a census response to its best (epoch, applied) pair.
func bestPrefix(sr replica.StateResp) (int, uint64) {
	bestE := 0
	for e := range sr.Applied {
		if e > bestE {
			bestE = e
		}
	}
	return bestE, sr.Applied[bestE]
}
