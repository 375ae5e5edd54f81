package replica

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// shipRec is a retained record plus its ship time (for ack latency).
type shipRec struct {
	rec Record
	at  sim.Time
}

// repState is the shipper's view of one replica.
type repState struct {
	name       string
	ack        uint64   // cumulative ack received
	lastHeard  sim.Time // last ack arrival (stalls during partitions)
	lastFill   sim.Time // last hole-triggered resend
	fillHi     uint64   // highest seq already resent to this replica
	progressAt sim.Time // last time ack advanced (repair go-back deadline)
	lost       bool     // retention trimmed past its ack: unrecoverable this epoch
	labelID    int64    // interned trace label for this replica
	ackGauge   *metrics.Gauge
	ackLat     *metrics.Histogram // ship → covered-by-cumulative-ack, per record
}

// Shipper is the primary-side half: it runs in the hypervisor's crash
// domain (it must survive guest crashes, and keeps shipping through the
// PSU hold-up window), retains unacknowledged records, and repairs losses.
type Shipper struct {
	s     *sim.Sim
	cfg   Config
	epoch int
	ep    *netsim.Endpoint

	next     uint64 // seq the next Ship call gets; first record is seq 1
	base     uint64 // seq of retained[0]
	retained []shipRec
	reps     []*repState
	allLost  bool // every replica lost for the epoch: retention is pointless

	pending      []Record // shipped records awaiting the next frame flush
	pendingBytes int

	daemons []*sim.Proc // ack/probe/flush procs, retained so Stop can kill them
	stopped bool
	fenced  bool // a FenceMsg for a later epoch arrived: this shipper is deposed

	quorumSig *sim.Signal // broadcast whenever any replica's ack advances
	workSig   *sim.Signal // wakes the probe when records are outstanding
	flushSig  *sim.Signal // wakes the flusher on the 0→1 pending transition

	framePool []*frame
	bufPool   map[int]*sizeClass // capacity → its buffers; nil once stopped

	tr       *obs.Tracer
	quorumHi uint64 // highest seq already traced as quorum-met

	lag       *metrics.Gauge // newest shipped seq − slowest replica ack, records
	retainedB *metrics.Gauge // bytes retained awaiting full acknowledgement
	shipped   *metrics.Counter
	shippedB  *metrics.Counter
	resends   *metrics.Counter
	evictions *metrics.Counter
	fenceRej  *metrics.Counter // stale-epoch acks/messages rejected
}

// NewShipper creates the primary side for one power epoch and starts its
// ack receiver and retransmit probe in dom (the hypervisor domain — both
// die with the machine, and a recovered machine builds a fresh Shipper
// under the next epoch).
func NewShipper(s *sim.Sim, fab *netsim.Fabric, dom *sim.Domain, epoch int, replicas []string, cfg Config) *Shipper {
	cfg.applyDefaults()
	reg := cfg.Reg
	sh := &Shipper{
		s:         s,
		cfg:       cfg,
		epoch:     epoch,
		ep:        fab.Endpoint(cfg.PrimaryName),
		next:      1,
		base:      1,
		quorumSig: s.NewSignal("repl.quorum"),
		workSig:   s.NewSignal("repl.work"),
		flushSig:  s.NewSignal("repl.flush"),
		bufPool:   make(map[int]*sizeClass),
		tr:        cfg.Trace,
		lag:       reg.Gauge("repl.lag"),
		retainedB: reg.Gauge("repl.retained_bytes"),
		shipped:   reg.Counter("repl.shipped"),
		shippedB:  reg.Counter("repl.shipped_bytes"),
		resends:   reg.Counter("repl.resends"),
		evictions: reg.Counter("repl.evictions"),
		fenceRej:  reg.Counter("ha.fence_rejections"),
	}
	for _, name := range replicas {
		sh.reps = append(sh.reps, &repState{
			name:     name,
			labelID:  cfg.Trace.Label(name),
			ackGauge: reg.Gauge("repl." + name + ".acked"),
			ackLat:   reg.Histogram("repl." + name + ".ack_latency"),
		})
	}
	sh.tr.Emit(s.Now().Duration(), obs.EvEpoch, 0, 0, int64(epoch), int64(len(replicas)))
	// A new epoch starts with nothing outstanding; the gauges are shared
	// across logger rebuilds and must restart from this shipper's reality
	// (peaks are preserved by the registry).
	sh.lag.Set(0)
	sh.retainedB.Set(0)
	sh.daemons = []*sim.Proc{
		s.Spawn(dom, fmt.Sprintf("repl.ack.e%d", epoch), sh.ackLoop),
		s.Spawn(dom, fmt.Sprintf("repl.probe.e%d", epoch), sh.probeLoop),
		s.Spawn(dom, fmt.Sprintf("repl.flush.e%d", epoch), sh.flushLoop),
	}
	return sh
}

// Stop shuts the shipper down in place: its ack/probe/flush daemons are
// killed (the domain stays live — this is a demotion, not a crash), its
// buffer pool is dropped, and every payload-buffer reference the shipper
// itself holds, across the retained stream and the unflushed pending queue,
// is released. Frames still in flight hold their own references and release
// themselves on delivery or drop, so Stop is safe while the fabric is busy;
// stores keep theirs for as long as they hold the records. Without a pool,
// what they release is garbage rather than spares for a shipper that will
// never ship again. Stopping a shipper whose domain already died is a no-op
// kill (the daemons are gone) plus the same release. Ship must not be
// called after Stop.
func (sh *Shipper) Stop() {
	if sh.stopped {
		return
	}
	sh.stopped = true
	sh.bufPool = nil
	for _, d := range sh.daemons {
		d.Kill()
	}
	for i := range sh.pending {
		sh.pending[i].buf.release()
		sh.pending[i] = Record{}
	}
	sh.pending = sh.pending[:0]
	sh.pendingBytes = 0
	freed := int64(0)
	for i := range sh.retained {
		freed += int64(len(sh.retained[i].rec.Data))
		sh.retained[i].rec.buf.release()
		sh.retained[i] = shipRec{}
	}
	sh.retained = sh.retained[:0]
	sh.base = sh.next
	sh.retainedB.Add(-freed)
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvTrim, 0, 0, int64(sh.epoch), sh.retainedB.Value())
	sh.lag.Set(0)
}

// pbufChunk is the backing array a size class carves its buffers from, one
// class-sized slice at a time: standby stores hold a buffer per live extent
// for as long as they hold the record, so the pool keeps growing with the
// stores, and one allocation per chunk (plus one struct slab) keeps that
// growth off the per-commit allocation count.
const pbufChunk = 256 << 10

// sizeClass is one capacity's share of a shipper's buffer pool: its free
// buffers, and the uncarved rest of the chunk and struct slab it cuts new
// ones from.
type sizeClass struct {
	free  []*payloadBuf
	chunk []byte
	slab  []payloadBuf
}

// getPBuf takes a payload buffer from its size class — a free one, or a
// new one carved from the class's chunk — already holding the retained
// stream's reference.
func (sh *Shipper) getPBuf(n int) *payloadBuf {
	c := 512
	for c < n {
		c <<= 1
	}
	sc := sh.bufPool[c]
	if sc == nil {
		sc = &sizeClass{}
		sh.bufPool[c] = sc
	}
	var pb *payloadBuf
	if k := len(sc.free); k > 0 {
		pb = sc.free[k-1]
		sc.free = sc.free[:k-1]
	} else {
		if len(sc.chunk) < c {
			sc.chunk = make([]byte, max(pbufChunk, c))
			sc.slab = make([]payloadBuf, len(sc.chunk)/c)
		}
		pb = &sc.slab[0]
		pb.data, pb.sh = sc.chunk[:0:c], sh
		sc.chunk, sc.slab = sc.chunk[c:], sc.slab[1:]
	}
	pb.data = pb.data[:n]
	pb.refs = 1
	return pb
}

func (sh *Shipper) getFrame() *frame {
	if n := len(sh.framePool); n > 0 {
		f := sh.framePool[n-1]
		sh.framePool = sh.framePool[:n-1]
		return f
	}
	// Sized for a full frame up front: fresh sends and repair rounds fill
	// up to maxFrameRecords, and growing by doubling would cost a
	// reallocation per power of two on every new frame.
	return &frame{sh: sh, recs: make([]Record, 0, maxFrameRecords)}
}

// putFrame returns a dead frame to the pool, dropping the payload-buffer
// reference each of its records held. Entries are zeroed so a pooled frame
// does not pin payload arrays the truncated stream has let go of.
func (sh *Shipper) putFrame(f *frame) {
	for i := range f.recs {
		f.recs[i].buf.release()
		f.recs[i] = Record{}
	}
	f.recs = f.recs[:0]
	f.span = 0
	sh.framePool = append(sh.framePool, f)
}

// LastSeq returns the newest sequence number shipped this epoch.
func (sh *Shipper) LastSeq() uint64 { return sh.next - 1 }

func (sh *Shipper) minAck() uint64 {
	m := sh.next - 1
	for _, r := range sh.reps {
		if r.ack < m {
			m = r.ack
		}
	}
	return m
}

// Ship copies data (callers reuse their buffers) into a retained,
// sequence-numbered record and queues it for the next frame flush. It never
// blocks — durability waiting is WaitQuorum's job — so it is safe on the
// Logger's hot path and inside degraded pass-through. Transmission is
// frame-batched: the record rides the next frame the flusher builds, at the
// same virtual timestamp as this call (signals do not advance time), so
// batching adds zero latency; a full batch flushes synchronously right
// here, so a producer that never yields still frames. data is a sector
// image, which recovery folds back onto sector boundaries, so a payload
// that is not a whole number of disk.SectorSize sectors is the caller's
// protocol violation, and Ship panics on it.
func (sh *Shipper) Ship(lba int64, data []byte) uint64 {
	if len(data) == 0 || len(data)%disk.SectorSize != 0 {
		panic(fmt.Sprintf("replica: Ship(lba %d) payload of %d bytes is not a whole number of %d-byte sectors", lba, len(data), disk.SectorSize))
	}
	pb := sh.getPBuf(len(data))
	copy(pb.data, data)
	seq := sh.next
	sh.next++
	// The caller (the Logger's ship hook) plants the buffer-entry span as
	// the implicit cause; the ship span bridges it to the wire.
	span := sh.tr.NewSpan()
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvShip, span, sh.tr.TakeCause(), int64(seq), int64(len(data)))
	rec := Record{Epoch: sh.epoch, Seq: seq, Lba: lba, Data: pb.data, Span: span, buf: pb}
	sh.retained = append(sh.retained, shipRec{rec: rec, at: sh.s.Now()})
	sh.retainedB.Add(int64(len(data)))
	sh.shipped.Inc()
	sh.shippedB.Add(int64(len(data)))
	// The pending queue holds its own buffer reference: if a trim passes a
	// record that has not framed yet (every replica lost), the retained
	// reference dies but the buffer stays live until the frame that finally
	// carries it does.
	pb.refs++
	sh.pending = append(sh.pending, rec)
	sh.pendingBytes += len(data)
	if len(sh.pending) >= maxFrameRecords || sh.pendingBytes >= maxFrameBytes {
		sh.flushPending()
	} else if len(sh.pending) == 1 {
		sh.flushSig.Broadcast()
	}
	sh.updateLag()
	sh.workSig.Broadcast()
	// With every replica lost for the epoch, no retransmission can ever
	// target this record and the probe that would otherwise trim is parked
	// (anyBehind ignores lost replicas) — drop the retention immediately or
	// it grows with every Ship until the next epoch. The pending queue's
	// own buffer reference keeps the frame path safe (see above).
	if sh.allLost {
		sh.truncate()
	}
	return seq
}

// flushLoop is the frame flusher. It is woken by the first record of a
// batch and runs the moment the producer yields — at the SAME virtual
// timestamp as the Ship that woke it — so every record shipped in the
// current instant coalesces into one frame per link with no added latency.
func (sh *Shipper) flushLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		for len(sh.pending) == 0 {
			sh.flushSig.Wait(p)
		}
		sh.flushPending()
	}
}

// flushPending cuts the pending queue into frames bounded by
// MaxFrameRecords and MaxFrameBytes and broadcasts each. The cut>0 guard
// lets a single record larger than MaxFrameBytes ship alone rather than
// wedge the queue.
func (sh *Shipper) flushPending() {
	for len(sh.pending) > 0 {
		cut, bytes := 0, 0
		for cut < len(sh.pending) && cut < maxFrameRecords {
			if cut > 0 && bytes+len(sh.pending[cut].Data) > maxFrameBytes {
				break
			}
			bytes += len(sh.pending[cut].Data)
			cut++
		}
		sh.sendFrame(sh.pending[:cut], bytes)
		n := copy(sh.pending, sh.pending[cut:])
		for i := n; i < len(sh.pending); i++ {
			sh.pending[i] = Record{}
		}
		sh.pending = sh.pending[:n]
	}
	sh.pendingBytes = 0
}

// sendFrame broadcasts one pooled frame built from recs: one fabric send
// per replica per frame instead of one per record. The frame inherits the
// pending queue's payload-buffer references and starts with one frame
// reference per replica — a copy the fabric drops is released synchronously
// inside the send loop, so the frame must not be touched after it.
func (sh *Shipper) sendFrame(recs []Record, payloadBytes int) {
	f := sh.getFrame()
	f.epoch = sh.epoch
	f.recs = append(f.recs, recs...)
	f.span = sh.tr.NewSpan()
	wire := payloadBytes + len(recs)*recordOverhead + frameOverhead
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvFrame, f.span, 0, int64(len(recs)), int64(wire))
	if len(sh.reps) == 0 {
		f.refs = 1
		f.Release()
		return
	}
	f.refs = len(sh.reps)
	for _, r := range sh.reps {
		sh.ep.SendCtx(r.name, wire, f, f.span)
	}
}

// QuorumSeq returns the highest sequence number held by at least k
// replicas (0 when k exceeds the replica count).
func (sh *Shipper) QuorumSeq(k int) uint64 {
	if k <= 0 {
		return sh.next - 1
	}
	if k > len(sh.reps) {
		return 0
	}
	// The k-th largest ack is the largest one that at least k replicas
	// have reached: quadratic in a handful of replicas, and allocation-free
	// on a path every ack and every quorum wake takes.
	var q uint64
	for _, r := range sh.reps {
		if r.ack <= q {
			continue
		}
		n := 0
		for _, o := range sh.reps {
			if o.ack >= r.ack {
				n++
			}
		}
		if n >= k {
			q = r.ack
		}
	}
	return q
}

// WaitQuorum parks p until at least k replicas hold seq. This is the ack
// policy's blocking point: the caller is a guest writer, and a partition
// stalls it here — no ack is ever issued that the policy cannot honour. A
// quorum the replica set can never form (k > replica count) is a config
// bug, not a wait: panic rather than park the writer forever.
// core.NewLogger rejects such configs up front via ReplicaCount.
func (sh *Shipper) WaitQuorum(p *sim.Proc, seq uint64, k int) {
	if k > len(sh.reps) {
		panic(fmt.Sprintf("replica: WaitQuorum(k=%d) with %d replicas can never be satisfied", k, len(sh.reps)))
	}
	for sh.QuorumSeq(k) < seq {
		sh.quorumSig.Wait(p)
	}
}

// ReplicaCount returns the number of standby replicas this shipper feeds.
// core.NewLogger uses it to reject an ack policy whose quorum the replica
// set can never satisfy.
func (sh *Shipper) ReplicaCount() int { return len(sh.reps) }

// ReplicaProgress is one replica's view for reports.
type ReplicaProgress struct {
	Name  string
	Acked uint64
}

// Progress returns per-replica cumulative acks in replica order.
func (sh *Shipper) Progress() []ReplicaProgress {
	out := make([]ReplicaProgress, len(sh.reps))
	for i, r := range sh.reps {
		out[i] = ReplicaProgress{Name: r.name, Acked: r.ack}
	}
	return out
}

func (sh *Shipper) rep(name string) *repState {
	for _, r := range sh.reps {
		if r.name == name {
			return r
		}
	}
	return nil
}

func (sh *Shipper) updateLag() {
	sh.lag.Set(int64(sh.next - 1 - sh.minAck()))
}

// retainMin is the truncation frontier: the slowest cumulative ack among
// replicas not lost for the epoch, so the stream stays revivable for any
// standby that comes back — but never more than RetainLimit bytes of it
// (capFloor). Once every replica is lost no record can ever be resent, and
// the whole stream goes.
func (sh *Shipper) retainMin() uint64 {
	if sh.allLost {
		return sh.next - 1
	}
	m := sh.next - 1
	for _, r := range sh.reps {
		if !r.lost {
			m = min(m, r.ack)
		}
	}
	return max(m, sh.capFloor())
}

// capFloor is the newest sequence that must go for the retained stream to
// fit RetainLimit (base-1 when it fits already).
func (sh *Shipper) capFloor() uint64 {
	over := sh.retainedB.Value() - sh.cfg.RetainLimit
	floor := sh.base - 1
	for i := 0; over > 0 && i < len(sh.retained); i++ {
		over -= int64(len(sh.retained[i].rec.Data))
		floor++
	}
	return floor
}

// truncate drops retained records every replica not lost has acknowledged,
// and the oldest records past RetainLimit. A replica the trim passed (its
// first missing record is gone) is lost for the epoch — evicted: no amount
// of retransmission can fill its gap now, so repair stops targeting it and
// it re-syncs at the next epoch's stream.
func (sh *Shipper) truncate() {
	minAck := sh.retainMin()
	if minAck < sh.base {
		return
	}
	n := int(minAck - sh.base + 1)
	if n > len(sh.retained) {
		n = len(sh.retained)
	}
	freed := int64(0)
	for i := range sh.retained[:n] {
		freed += int64(len(sh.retained[i].rec.Data))
		sh.retained[i].rec.buf.release()
	}
	// Shift in place: the old copy-on-trim reallocated the backing array on
	// every ack round, which the steady-state zero-alloc discipline forbids.
	m := copy(sh.retained, sh.retained[n:])
	for i := m; i < len(sh.retained); i++ {
		sh.retained[i] = shipRec{}
	}
	sh.retained = sh.retained[:m]
	sh.base += uint64(n)
	sh.retainedB.Add(-freed)
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvTrim, 0, 0, int64(sh.epoch), sh.retainedB.Value())
	all := len(sh.reps) > 0
	for _, r := range sh.reps {
		if !r.lost && r.ack+1 < sh.base {
			r.lost = true
			sh.evictions.Inc()
			sh.tr.Emit(sh.s.Now().Duration(), obs.EvEvict, 0, 0, r.labelID, sh.retainedB.Value())
		}
		all = all && r.lost
	}
	// Only a frame already in flight when the trim passed can bring a lost
	// replica back (see ackLoop), so all-lost holds until such an ack lands
	// or the next epoch's shipper starts.
	sh.allLost = all
}

// ackLoop receives cumulative acks, advances per-replica state, observes
// ack latency for newly covered records, and refills reported holes.
func (sh *Shipper) ackLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		m := sh.ep.Recv(p)
		if fm, ok := m.Payload.(FenceMsg); ok {
			// The cluster has fenced a later epoch: this shipper is deposed.
			// Acknowledge (so the coordinator's fence wait can complete even
			// with the old primary alive) and stop counting acks toward
			// quorum — a deposed stream must never commit.
			if fm.Epoch > sh.epoch {
				sh.fenced = true
				sh.ep.Send(fm.From, fenceMsgBytes, FenceAck{Epoch: fm.Epoch, From: sh.cfg.PrimaryName})
			}
			continue
		}
		ack, ok := m.Payload.(*ackMsg)
		if !ok {
			continue
		}
		am := ack.read()
		ack.Release()
		if am.Epoch != sh.epoch {
			sh.fenceRej.Inc()
			continue // stale epoch: a standby acking a dead shipper's stream
		}
		if sh.fenced {
			sh.fenceRej.Inc()
			continue // deposed: acks no longer advance quorum
		}
		r := sh.rep(am.From)
		if r == nil {
			continue
		}
		now := sh.s.Now()
		r.lastHeard = now
		if am.Seq > r.ack {
			for seq := r.ack + 1; seq <= am.Seq; seq++ {
				if seq >= sh.base && int(seq-sh.base) < len(sh.retained) {
					sr := sh.retained[int(seq-sh.base)]
					r.ackLat.Observe(now.Sub(sr.at))
					sh.tr.Emit(now.Duration(), obs.EvReplicaAck, 0, sr.rec.Span, int64(seq), r.labelID)
				}
			}
			r.ack = am.Seq
			r.progressAt = now
			r.ackGauge.Set(int64(am.Seq))
			// A frame in flight when the trim passed can still carry a lost
			// replica up to the retained stream; past that, it stays lost
			// until the next epoch.
			if r.ack+1 >= sh.base {
				r.lost = false
			}
			sh.traceQuorum(now)
			sh.truncate()
			sh.updateLag()
			sh.quorumSig.Broadcast()
		}
		// The standby has received past a gap it cannot apply: refill the
		// window right away instead of waiting out the probe interval. A
		// lost replica's gap starts before the retained stream — there is
		// nothing to refill it with.
		if !r.lost && am.Seen > am.Seq && r.ack < sh.next-1 && now.Sub(r.lastFill) >= holeResendMin {
			r.lastFill = now
			sh.resendWindow(r)
		}
	}
}

// traceQuorum emits EvQuorumMet for every sequence that newly reached the
// configured quorum, parented under the record's ship span. It runs before
// truncate so the retained stream still holds the spans; a sequence whose
// record was already trimmed (the trim passed a replica) is traced with no
// parent rather than dropped.
func (sh *Shipper) traceQuorum(now sim.Time) {
	k := sh.cfg.TraceQuorumK
	if k <= 0 || !sh.tr.Enabled() {
		return
	}
	q := sh.QuorumSeq(k)
	for seq := sh.quorumHi + 1; seq <= q; seq++ {
		var parent obs.SpanID
		if seq >= sh.base && int(seq-sh.base) < len(sh.retained) {
			parent = sh.retained[int(seq-sh.base)].rec.Span
		}
		sh.tr.Emit(now.Duration(), obs.EvQuorumMet, 0, parent, int64(seq), int64(k))
	}
	if q > sh.quorumHi {
		sh.quorumHi = q
	}
}

// probeLoop resends the oldest unacknowledged window to any replica that
// has been silent for a full retransmit interval — the slow path that
// catches a replica back up after a partition heals or a restart, when no
// acks are flowing to trigger hole repair. It parks when nothing is
// outstanding, so an idle deployment schedules no timer churn.
func (sh *Shipper) probeLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		if !sh.anyBehind() {
			sh.workSig.Wait(p)
			continue
		}
		p.Sleep(RetransmitEvery)
		// With no ack arriving (a partition, local acks) nothing else trims:
		// hold the stream to its limit here.
		if sh.retainedB.Value() > sh.cfg.RetainLimit {
			sh.truncate()
		}
		now := sh.s.Now()
		for _, r := range sh.reps {
			if r.lost || r.ack >= sh.next-1 {
				continue
			}
			if now.Sub(r.lastHeard) < RetransmitEvery {
				continue // acks are flowing; hole repair owns the fast path
			}
			sh.resendWindow(r)
		}
	}
}

func (sh *Shipper) anyBehind() bool {
	for _, r := range sh.reps {
		if !r.lost && r.ack < sh.next-1 {
			return true
		}
	}
	return false
}

// resendWindow retransmits up to ResendWindow retained records towards one
// replica's first unacknowledged sequence. Repair is pipelined: while the
// replica's cumulative ack is advancing, each round extends past what was
// already resent instead of resending overlapping windows — overlapping
// windows saturate the link's bandwidth exactly when it is trying to catch
// up, and the resulting duplicate flood collapses the repair rate. Only
// when progress stalls for a full retransmit interval does the window go
// back to ack+1 (the earlier refill evidently died on the wire). The total
// repair pipeline is bounded so a slow replica cannot accumulate unbounded
// in-flight bytes.
func (sh *Shipper) resendWindow(r *repState) {
	now := sh.s.Now()
	lo := r.ack + 1
	if lo < sh.base {
		lo = sh.base
	}
	if r.fillHi >= lo && now.Sub(r.progressAt) < RetransmitEvery {
		lo = r.fillHi + 1
	}
	hi := sh.next - 1
	if maxAhead := r.ack + maxResendRecords*8; hi > maxAhead {
		hi = maxAhead
	}
	if hi >= lo && hi-lo+1 > maxResendRecords {
		hi = lo + maxResendRecords - 1
	}
	if hi < lo {
		return
	}
	// Repair is frame-granular too: retained records are rebatched into
	// frames of the same shape as fresh sends, unicast to the one replica
	// being repaired (refs = 1). Each record in a repair frame takes its own
	// payload-buffer reference, so a truncate racing the repair in virtual
	// time cannot recycle a buffer the frame still carries.
	sh.resends.Add(int64(hi - lo + 1))
	for seq := lo; seq <= hi; {
		f := sh.getFrame()
		f.epoch = sh.epoch
		bytes := 0
		for seq <= hi && len(f.recs) < maxFrameRecords {
			rec := sh.retained[int(seq-sh.base)].rec
			if len(f.recs) > 0 && bytes+len(rec.Data) > maxFrameBytes {
				break
			}
			rec.buf.refs++
			f.recs = append(f.recs, rec)
			bytes += len(rec.Data)
			seq++
		}
		f.span = sh.tr.NewSpan()
		wire := bytes + len(f.recs)*recordOverhead + frameOverhead
		sh.tr.Emit(now.Duration(), obs.EvFrame, f.span, 0, int64(len(f.recs)), int64(wire))
		f.refs = 1
		sh.ep.SendCtx(r.name, wire, f, f.span)
	}
	sh.tr.Emit(now.Duration(), obs.EvRepair, 0, 0, r.labelID, int64(hi-lo+1))
	r.fillHi = hi
}
