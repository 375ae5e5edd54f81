package replica

import (
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Wire-size model: per-record framing (epoch, seq, lba, length, CRC), the
// per-frame header (epoch, record count, frame CRC), and the fixed size of
// a cumulative ack.
const (
	recordOverhead = 32
	frameOverhead  = 16
	ackBytes       = 24
)

// Record is one shipped log write: the payload plus where it belongs on
// the log partition. Records double as the wire format. Span is the ship's
// trace context riding the wire (zero when tracing is off) — the analogue
// of a traceparent header — so standby-side events parent under the
// primary-side ship span.
type Record struct {
	Epoch int
	Seq   uint64
	Lba   int64
	Data  []byte
	Span  obs.SpanID

	// buf is the refcounted backing array behind Data: the shipper's pooled
	// buffer, shared by the retained stream, every frame carrying the
	// record and every standby store holding it. It is nil only on a record
	// built outside Ship (a bare Record message, a test); a store that
	// holds one gives it a private buffer. Once the last reference is
	// released the shipper's pool recycles the array for a later Ship, so
	// a reader holding no reference copies Data before anything can
	// release one.
	buf *payloadBuf
}

// payloadBuf is a refcounted backing array for a shipped record's payload,
// pooled per size class on the shipper that cut it. The retained stream
// holds one reference, the pending queue one until the record frames,
// every frame carrying the record one more, and every standby store that
// applied or stashed it one. The buffer returns to its shipper's pool only
// when the last reference dies — which is what makes recycling safe under
// the fabric's delivery-by-reference contract: no frame still in flight and
// no store can ever observe a recycled buffer.
type payloadBuf struct {
	data []byte
	refs int
	sh   *Shipper // the pool it returns to; nil for a private buffer
}

// release drops one reference; the last returns the buffer to its
// shipper's pool, unless that shipper has stopped. Under the netsimcheck
// build tag the buffer is poisoned and quarantined instead, so a holder
// that kept no reference reads garbage its checksum catches, never another
// record's bytes.
func (pb *payloadBuf) release() {
	pb.refs--
	switch {
	case pb.refs < 0:
		panic("replica: payload buffer released more times than it was referenced")
	case pb.refs > 0:
	case netsim.Checked:
		poison := pb.data[:cap(pb.data)]
		for i := range poison {
			poison[i] = 0xDB
		}
	case pb.sh != nil && pb.sh.bufPool != nil:
		sc := pb.sh.bufPool[cap(pb.data)]
		sc.free = append(sc.free, pb)
	}
}

// frame is one wire-level batch of records bound for a replica link: the
// shipper issues one Fabric send per frame instead of one per record, and a
// standby applies the whole frame in one pass and answers with one
// cumulative ack. Frames are pooled and refcounted (netsim.Refcounted): a
// fresh frame starts with one reference per replica it is broadcast to —
// the fabric releases dropped copies, receivers release on delivery — and
// returns to its shipper's pool when the last reference dies.
type frame struct {
	epoch int
	recs  []Record
	span  obs.SpanID
	refs  int
	sh    *Shipper
}

// Retain and Release implement netsim.Refcounted (the fabric retains
// duplicated deliveries and releases dropped ones).
func (f *frame) Retain() { f.refs++ }

func (f *frame) Release() {
	f.refs--
	if f.refs == 0 {
		f.sh.putFrame(f)
	}
}

// OwnershipSum implements netsim.Checksummer: an FNV-1a digest over the
// frame header and every record's identity and payload bytes, so the
// ownership check catches a pooled buffer recycled while the frame was
// still in flight.
func (f *frame) OwnershipSum() uint32 {
	h := uint32(2166136261)
	mix64 := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint32(v>>i&0xff)) * 16777619
		}
	}
	mix64(uint64(f.epoch))
	mix64(uint64(f.span))
	mix64(uint64(len(f.recs)))
	for i := range f.recs {
		r := &f.recs[i]
		mix64(r.Seq)
		mix64(uint64(r.Lba))
		for _, b := range r.Data {
			h = (h ^ uint32(b)) * 16777619
		}
	}
	return h
}

// ackMsg is a standby's cumulative acknowledgement for one epoch. Acks are
// pooled on the standby that sends them and refcounted (netsim.Refcounted):
// a fresh ack holds one reference, the fabric releases dropped copies and
// retains duplicates, and the shipper's ackLoop releases each one it
// receives once it has read it. Readers go through read, which under the
// netsimcheck build tag fails on an ack whose last reference is gone; that
// build also quarantines released acks instead of recycling them, so a
// stale reader meets a dead ack rather than someone else's live one.
type ackMsg struct {
	Epoch int
	Seq   uint64 // everything ≤ Seq is durably applied
	Seen  uint64 // highest seq received (Seen > Seq ⇒ a hole the shipper should refill)
	From  string

	refs int
	pool *ackPool // nil for acks built by tests
}

// ackPool is a standby's freelist of acks.
type ackPool []*ackMsg

// get returns an ack holding one reference, its fields set.
func (ap *ackPool) get(epoch int, seq, seen uint64, from string) *ackMsg {
	var a *ackMsg
	if n := len(*ap); n > 0 {
		a = (*ap)[n-1]
		*ap = (*ap)[:n-1]
	} else {
		a = &ackMsg{pool: ap}
	}
	a.Epoch, a.Seq, a.Seen, a.From, a.refs = epoch, seq, seen, from, 1
	return a
}

// Retain and Release implement netsim.Refcounted.
func (a *ackMsg) Retain() { a.refs++ }

func (a *ackMsg) Release() {
	a.refs--
	switch {
	case a.refs < 0:
		panic("replica: ack released more times than it was referenced")
	case a.refs == 0 && a.pool != nil && !netsim.Checked:
		*a.pool = append(*a.pool, a)
	}
}

// read returns the ack's contents. The caller must hold a reference.
func (a *ackMsg) read() ackMsg {
	if netsim.Checked && a.refs <= 0 {
		panic("replica: ack read after its last reference was released")
	}
	return *a
}

// FenceMsg raises a recipient's fence to Epoch: from its arrival onward,
// records and acks carrying an epoch below the fence are rejected. The HA
// coordinator broadcasts it before promoting a standby, so a deposed
// primary's stream can never commit into a fenced cluster.
type FenceMsg struct {
	Epoch int
	From  string // endpoint to send the FenceAck back to
}

// FenceAck confirms a standby's fence is at least Epoch.
type FenceAck struct {
	Epoch int
	From  string
}

// StateReq asks a standby for its replication state (election evidence).
type StateReq struct {
	From string // endpoint to send the StateResp back to
}

// StateResp reports a standby's per-epoch contiguous applied prefixes and
// its current fence. Applied is a copy: the payload crosses the fabric by
// reference and must not alias the standby's live map.
type StateResp struct {
	From    string
	Applied map[int]uint64
	Fenced  int
}

// fenceMsgBytes is the wire size of fence/state-query control messages —
// small fixed-format datagrams like acks.
const fenceMsgBytes = ackBytes
