package replica

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Standby is one remote replica: a receiver in its own crash domain that
// applies the record stream in order and holds the applied log durably
// (its store survives its own crashes; only the receiver process dies).
type Standby struct {
	s    *sim.Sim
	fab  *netsim.Fabric
	name string
	cfg  Config
	dom  *sim.Domain
	ep   *netsim.Endpoint

	alive   bool
	fenced  int                       // lowest epoch still accepted; below it everything is rejected
	applied map[int]uint64            // per-epoch contiguous applied prefix
	seen    map[int]uint64            // per-epoch highest seq ever received
	ooo     map[int]map[uint64]Record // buffered out-of-order arrivals, each holding its payload
	log     []Record                  // applied records, in apply order; a retired one is zeroed (Seq 0)
	live    map[extent]int            // a live record's sectors → its index in log
	retired int                       // zeroed entries in log
	sums    map[*payloadBuf]uint32    // netsimcheck only: each held payload's digest when taken
	onApply func()                    // called after each receiver batch that applied records

	// The receiver's per-wake-up batch, reset and reused: the epochs touched,
	// who shipped each (the ack target), and the records applied.
	batchEpochs  []int
	batchAckTo   map[int]string
	batchApplied int
	acks         ackPool // acks the shipper has read and released

	appliedC *metrics.Counter
	dupC     *metrics.Counter
	oooC     *metrics.Counter
	fenceRej *metrics.Counter

	tr      *obs.Tracer
	labelID int64
}

// NewStandby creates a standby replica and starts its receiver. The domain
// is created directly on the simulation — deliberately outside the
// machine's crash domains, because the standby models a different machine.
func NewStandby(s *sim.Sim, fab *netsim.Fabric, name string, cfg Config) *Standby {
	cfg.applyDefaults()
	reg := cfg.Reg
	st := &Standby{
		s:          s,
		fab:        fab,
		name:       name,
		cfg:        cfg,
		dom:        s.NewDomain("replica." + name),
		ep:         fab.Endpoint(name),
		alive:      true,
		applied:    make(map[int]uint64),
		seen:       make(map[int]uint64),
		ooo:        make(map[int]map[uint64]Record),
		live:       make(map[extent]int),
		batchAckTo: make(map[int]string),
		sums:       make(map[*payloadBuf]uint32),
		appliedC:   reg.Counter("repl." + name + ".applied"),
		dupC:       reg.Counter("repl." + name + ".dups"),
		oooC:       reg.Counter("repl." + name + ".out_of_order"),
		fenceRej:   reg.Counter("ha.fence_rejections"),
		tr:         cfg.Trace,
		labelID:    cfg.Trace.Label(name),
	}
	st.spawnReceiver()
	return st
}

// Name returns the standby's fabric endpoint name.
func (st *Standby) Name() string { return st.name }

// Alive reports whether the standby is up (its receiver running).
func (st *Standby) Alive() bool { return st.alive }

// AppliedSeq returns the contiguous applied prefix for an epoch.
func (st *Standby) AppliedSeq(epoch int) uint64 { return st.applied[epoch] }

// Records returns the standby's live applied records, in apply order: a
// record that rewrote exactly the sectors of an earlier one of its epoch
// retired that one (see apply). The slice is the store's own, and each
// payload is a buffer the shipper, its frames and other stores share —
// callers must not mutate them, and must copy what they keep past a yield:
// a record applied meanwhile may retire one of these, and the release can
// return its buffer to the shipper's pool, whose next Ship overwrites it.
// Records survive crashes — the store is durable, the process is not.
// Under the netsimcheck build tag every returned payload is first checked
// against the digest the store took with its reference.
func (st *Standby) Records() []Record {
	if st.retired > 0 {
		st.compact()
	}
	if netsim.Checked {
		for _, r := range st.log {
			// A payload whose bytes changed was released under the store:
			// poisoned, or recycled while the store still held it.
			if crc32.ChecksumIEEE(r.Data) != st.sums[r.buf] {
				panic(fmt.Sprintf("replica: %s holds e%d seq %d, whose payload changed after the store took it",
					st.name, r.Epoch, r.Seq))
			}
		}
	}
	return st.log
}

// SetOnApply installs a hook the receiver calls after every batch that
// applied records, once they are held (a cluster builds a node's warm
// follower on the first).
func (st *Standby) SetOnApply(fn func()) { st.onApply = fn }

// Position returns a copy of the standby's applied prefix, per epoch.
func (st *Standby) Position() Position {
	pos := make(Position, len(st.applied))
	for e, seq := range st.applied {
		pos[e] = seq
	}
	return pos
}

// Since counts the live records past pos and their payload bytes.
func (st *Standby) Since(pos Position) (records int, bytes int64) {
	for _, rec := range st.log {
		if rec.Seq > pos[rec.Epoch] {
			records++
			bytes += int64(len(rec.Data))
		}
	}
	return records, bytes
}

// Epochs returns the epochs this standby holds records for, ascending.
func (st *Standby) Epochs() []int {
	out := make([]int, 0, len(st.applied))
	for e := range st.applied {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// Crash kills the standby: its receiver dies, its network port goes down
// (in-flight packets to it are lost), but its applied log — durable
// storage — survives for Restart and for recovery.
func (st *Standby) Crash() {
	if !st.alive {
		return
	}
	st.alive = false
	st.fab.Isolate(st.name)
	st.dom.Kill()
}

// Restart brings a crashed standby back: the NIC queue that died with the
// node is discarded, the port comes back up, and a fresh receiver resumes
// from the durable applied state. Catch-up is the shipper's retransmit
// protocol doing its job.
func (st *Standby) Restart() {
	if st.alive {
		return
	}
	st.alive = true
	for {
		m, ok := st.ep.TryRecv()
		if !ok {
			break
		}
		// The NIC queue dies with the node — but a discarded frame is still
		// a reference the shipper's pool is waiting on.
		if rc, ok := m.Payload.(netsim.Refcounted); ok {
			rc.Release()
		}
	}
	st.fab.Restore(st.name)
	st.dom.Revive()
	st.spawnReceiver()
}

func (st *Standby) spawnReceiver() {
	st.s.Spawn(st.dom, "replica."+st.name, func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			m := st.ep.Recv(p)
			st.batchEpochs, st.batchApplied = st.batchEpochs[:0], 0
			clear(st.batchAckTo)
			st.handle(m)
			for {
				m2, ok := st.ep.TryRecv()
				if !ok {
					break
				}
				st.handle(m2)
			}
			if st.batchApplied > 0 {
				p.Sleep(time.Duration(st.batchApplied) * applyDelay)
				if st.onApply != nil {
					st.onApply()
				}
			}
			// One cumulative ack per epoch touched in this batch, addressed
			// to whichever shipper carried that epoch's frames: a standby
			// outlives leaders, so the ack target is the stream's sender,
			// not a fixed endpoint.
			sort.Ints(st.batchEpochs)
			for _, e := range st.batchEpochs {
				to := st.batchAckTo[e]
				if to == "" {
					to = st.cfg.PrimaryName
				}
				st.ep.Send(to, ackBytes, st.acks.get(e, st.applied[e], st.maxSeen(e), st.name))
			}
		}
	})
}

// handle dispatches one inbound message: a frame is applied record by
// record in one pass and then released back to its shipper's pool; a bare
// Record (older senders, tests) takes the same per-record path. Either way
// the batch accounting in the receiver yields ONE cumulative ack per epoch
// per wakeup — the ack-coalescing half of frame shipping.
func (st *Standby) handle(m netsim.Message) {
	switch pl := m.Payload.(type) {
	case *frame:
		for i := range pl.recs {
			st.handleRec(pl.recs[i], m.From)
		}
		pl.Release()
	case Record:
		st.handleRec(pl, m.From)
	case FenceMsg:
		// Fencing is monotone: the fence only ever rises. The ack always
		// reports the current fence so a duplicate or stale fence still
		// completes the coordinator's wait.
		if pl.Epoch > st.fenced {
			st.fenced = pl.Epoch
		}
		st.ep.Send(pl.From, fenceMsgBytes, FenceAck{Epoch: st.fenced, From: st.name})
	case StateReq:
		st.ep.Send(pl.From, fenceMsgBytes, st.stateResp())
	}
}

// stateResp snapshots the standby's election evidence. The applied map is
// copied: the response crosses the fabric by reference.
func (st *Standby) stateResp() StateResp {
	return StateResp{From: st.name, Applied: st.Position(), Fenced: st.fenced}
}

// hold takes the store's reference on rec's payload: a shipped record's
// pooled buffer is shared, never copied, so every store that holds the
// record holds the same bytes. A record that came without one (a bare
// Record message) gets a private buffer holding a copy.
func (st *Standby) hold(rec Record) Record {
	if rec.buf == nil {
		rec.buf = &payloadBuf{data: bytes.Clone(rec.Data), refs: 1}
		rec.Data = rec.buf.data
	} else {
		rec.buf.refs++
	}
	if netsim.Checked {
		st.sums[rec.buf] = crc32.ChecksumIEEE(rec.Data)
	}
	return rec
}

// handleRec processes one inbound record: apply in order, buffer ahead-of-
// order arrivals, re-acknowledge duplicates.
func (st *Standby) handleRec(rec Record, from string) {
	e := rec.Epoch
	if e < st.fenced {
		// A deposed shipper's stream: reject without applying or acking, so
		// the stale epoch can never gather quorum evidence after promotion.
		st.fenceRej.Inc()
		return
	}
	touched := false
	for _, seen := range st.batchEpochs {
		if seen == e {
			touched = true
			break
		}
	}
	if !touched {
		st.batchEpochs = append(st.batchEpochs, e)
	}
	st.batchAckTo[e] = from
	if rec.Seq > st.seen[e] {
		st.seen[e] = rec.Seq
	}
	switch ap := st.applied[e]; {
	case rec.Seq <= ap:
		st.dupC.Inc() // duplicate or already-covered resend: just re-ack
	case rec.Seq == ap+1:
		st.apply(rec, false)
		st.batchApplied++
		for {
			nxt, ok := st.ooo[e][st.applied[e]+1]
			if !ok {
				break
			}
			delete(st.ooo[e], st.applied[e]+1)
			st.apply(nxt, true)
			st.batchApplied++
		}
	default:
		if st.ooo[e] == nil {
			st.ooo[e] = make(map[uint64]Record)
		}
		if _, dup := st.ooo[e][rec.Seq]; !dup {
			st.ooo[e][rec.Seq] = st.hold(rec)
			st.oooC.Inc()
		}
	}
}

// extent names the exact sectors a record wrote, within its epoch.
type extent struct {
	epoch int
	lba   int64
	n     int
}

// apply appends rec to the applied log, holding its payload. A record that
// rewrites exactly the sectors of an earlier live record of its epoch — the
// WAL's tail block, rewritten at every force — retires that record and
// drops its reference: Recover folds a store's whole per-epoch prefix in
// order, so a record fully rewritten later in its epoch never reaches the
// image, and the store holds one version per live block instead of every
// force's. The retired record's slot is zeroed and squeezed out once
// retired slots outnumber live ones, or when Records is read. held says
// the store already holds rec's payload (an out-of-order arrival stashed
// earlier).
func (st *Standby) apply(rec Record, held bool) {
	st.applied[rec.Epoch] = rec.Seq
	if !held {
		rec = st.hold(rec)
	}
	key := extent{rec.Epoch, rec.Lba, len(rec.Data)}
	if i, ok := st.live[key]; ok {
		if netsim.Checked {
			delete(st.sums, st.log[i].buf)
		}
		st.log[i].buf.release()
		st.log[i] = Record{}
		st.retired++
	}
	st.live[key] = len(st.log)
	st.log = append(st.log, rec)
	if st.retired > len(st.log)/2 {
		st.compact()
	}
	st.appliedC.Inc()
	st.tr.Emit(st.s.Now().Duration(), obs.EvReplicaApply, 0, rec.Span, int64(rec.Seq), st.labelID)
}

// compact squeezes the retired (zeroed) slots out of the log, in place.
func (st *Standby) compact() {
	kept := st.log[:0]
	for _, r := range st.log {
		if r.Seq != 0 {
			st.live[extent{r.Epoch, r.Lba, len(r.Data)}] = len(kept)
			kept = append(kept, r)
		}
	}
	clear(st.log[len(kept):])
	st.log, st.retired = kept, 0
}

// maxSeen returns the highest sequence this standby has received for an
// epoch — applied prefix or anything that ever arrived ahead of it. Tracked
// incrementally: the receiver acks often, and scanning the out-of-order
// stash per ack is quadratic in the backlog a partition leaves behind.
func (st *Standby) maxSeen(epoch int) uint64 {
	if m := st.seen[epoch]; m > st.applied[epoch] {
		return m
	}
	return st.applied[epoch]
}
