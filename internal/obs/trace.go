package obs

import "time"

// Kind is the type of a trace event. The vocabulary covers the full commit
// lifecycle, from the transaction's first instruction to the moment its
// bytes are on a platter (or in the power-fail dump zone).
type Kind uint8

// The event vocabulary. Arg1/Arg2 meanings are per kind.
const (
	// EvTxBegin: a transaction started. Span = tx span, Arg1 = txid.
	EvTxBegin Kind = iota + 1
	// EvWalAppend: a redo/commit record was framed into the WAL.
	// Parent = tx span, Arg1 = LSN, Arg2 = payload bytes.
	EvWalAppend
	// EvLogSubmit: the WAL submitted a physical write of sealed blocks to
	// the log device. Span = force span, Arg1 = target LSN, Arg2 = bytes.
	EvLogSubmit
	// EvLogComplete: the physical force finished; everything below Arg1 is
	// on the log device. Parent = force span, Arg1 = flushed LSN.
	EvLogComplete
	// EvTxAck: the commit returned to the client — the guest-visible
	// acknowledgement. Parent = tx span, Arg1 = txid.
	EvTxAck
	// EvTxDurable: the commit record passed the WAL durability horizon
	// (on the log device; under RapiLog that device is the dependable
	// buffer). Parent = tx span, Arg1 = txid.
	EvTxDurable
	// EvHvAck: the RapiLog device copied a write into hypervisor memory
	// and acknowledged it — exposure begins. Span = buffer-entry span,
	// Parent = force span, Arg1 = lba, Arg2 = bytes.
	EvHvAck
	// EvHvAbsorb: a write was absorbed into an existing buffered entry,
	// superseding its bytes in place (exposure is unchanged). It is a write
	// of the force that issued it, like an EvHvAck: Span = this write's own
	// span, Parent = force span, Arg1 = lba, Arg2 = bytes.
	EvHvAbsorb
	// EvHvThrottle: a writer had to wait for buffer space (the bound at
	// work). Arg2 = bytes requested.
	EvHvThrottle
	// EvDrainStart: the background drain picked up a batch.
	// Span = drain-round span, Arg1 = entries, Arg2 = bytes.
	EvDrainStart
	// EvDurable: a buffered entry reached the physical log partition with
	// the volatile cache bypassed — exposure ends. Parent = the entry's
	// EvHvAck span, Arg1 = lba, Arg2 = bytes.
	EvDurable
	// EvDumpStart: the power-fail interrupt fired and the emergency dump
	// began. Span = dump span, Arg1 = entries, Arg2 = buffered bytes.
	EvDumpStart
	// EvDumpDone: the dump image is in the dump zone; everything still
	// buffered is safe. Parent = dump span, Arg2 = payload bytes.
	EvDumpDone
	// EvPowerFail: AC was lost; the hold-up race began. Arg1 = hold-up ns.
	EvPowerFail
	// EvPowerDC: the hold-up window closed; DC rails collapsed.
	EvPowerDC
	// EvPowerRestore: power returned.
	EvPowerRestore
	// EvDrainError: a drain-path backing write failed and will be retried.
	// Arg1 = lba, Arg2 = attempt number.
	EvDrainError
	// EvDegraded: the drain retry budget ran out; the RapiLog device fell
	// back to synchronous pass-through. Arg1 = stranded entries,
	// Arg2 = stranded bytes.
	EvDegraded
	// EvRestored: the stranded buffer finally drained; the device returned
	// to buffered operation.
	EvRestored
	// EvShip: the shipper framed a log write into a replication record and
	// queued it for every standby. Span = ship span, Parent = the span of
	// the write it carries (its EvHvAck or EvHvAbsorb; zero for a degraded
	// pass-through write), Arg1 = stream sequence number, Arg2 = payload
	// bytes. The record's sequence is what a quorum policy makes that
	// write's force wait for.
	EvShip
	// EvFrame: the shipper coalesced pending records into one wire frame
	// and transmitted it (one fabric message per replica instead of one
	// per record). Span = frame span (the causal span net events carry),
	// Arg1 = records in the frame, Arg2 = wire bytes. Per-record causality
	// is unaffected: each record still gets its own EvShip, and standby
	// applies/acks still parent under the record's ship span.
	EvFrame
	// EvNetSend: the fabric accepted a message for delivery.
	// Parent = causal span (ship span for records, zero for control
	// traffic), Arg1 = wire bytes, Arg2 = destination label id.
	EvNetSend
	// EvNetDeliver: a message reached its destination endpoint.
	// Parent = causal span, Arg1 = wire bytes, Arg2 = destination label id.
	EvNetDeliver
	// EvNetDrop: the fabric dropped a message (loss or partition).
	// Parent = causal span, Arg1 = wire bytes, Arg2 = destination label id.
	EvNetDrop
	// EvNetDup: the fabric duplicated a message; a second copy is in
	// flight. Parent = causal span, Arg1 = wire bytes, Arg2 = destination
	// label id.
	EvNetDup
	// EvReplicaApply: a standby applied a record to its local stream in
	// order. Parent = ship span, Arg1 = sequence, Arg2 = replica label id.
	EvReplicaApply
	// EvReplicaAck: the primary learned (via a cumulative ack) that a
	// standby holds this record. Parent = ship span, Arg1 = sequence,
	// Arg2 = replica label id.
	EvReplicaAck
	// EvQuorumMet: the k-th distinct standby acked this sequence — the
	// quorum barrier for the record is down. Parent = ship span,
	// Arg1 = sequence, Arg2 = k.
	EvQuorumMet
	// EvRepair: the shipper resent a window of unacked records to a lagging
	// or hole-reporting standby. Arg1 = replica label id, Arg2 = records
	// resent.
	EvRepair
	// EvEvict: the trim passed this standby; it is lost for the epoch.
	// Arg1 = replica label id, Arg2 = bytes still retained.
	EvEvict
	// EvTrim: the shipper freed retained records (every standby not lost
	// acked them, they fell past its retention limit, or it stopped).
	// Arg1 = epoch, Arg2 = bytes still retained — absolute, so a window that
	// starts mid-stream re-anchors at its first trim.
	EvTrim
	// EvEpoch: a new shipper epoch began (assembly or post-power-cycle
	// reassembly); stream sequence numbers restart. Arg1 = epoch,
	// Arg2 = standby count.
	EvEpoch
	// EvViolation: the online invariant monitor detected a violation.
	// Arg1 = invariant ordinal (see monitor.go), Arg2 = violation count so
	// far for that invariant.
	EvViolation
	// EvElect: the HA coordinator elected a takeover candidate — the node
	// with the highest quorum-covered (epoch, seq) prefix among reachable
	// standbys. Span = failover span, Arg1 = winner label id, Arg2 = the
	// winner's applied seq in its newest epoch.
	EvElect
	// EvFence: the coordinator fenced the cluster at a new epoch; stale-
	// epoch records and acks are rejected everywhere from this point.
	// Parent = failover span, Arg1 = fenced epoch, Arg2 = fence acks
	// collected.
	EvFence
	// EvPromote: the elected standby finished promotion — its applied prefix
	// is replayed into a fresh engine/WAL stack and a new shipper serves the
	// fenced epoch. Parent = failover span, Arg1 = new leader label id,
	// Arg2 = replayed bytes.
	EvPromote
	// EvRedirect: a client session chased the leadership change — its op hit
	// a dead or deposed leader and was retried against the directory's new
	// one. Arg1 = new leader label id, Arg2 = session retry count.
	EvRedirect
)

var kindNames = map[Kind]string{
	EvTxBegin:      "tx_begin",
	EvWalAppend:    "wal_append",
	EvLogSubmit:    "log_submit",
	EvLogComplete:  "log_complete",
	EvTxAck:        "tx_ack",
	EvTxDurable:    "tx_durable",
	EvHvAck:        "hv_ack",
	EvHvAbsorb:     "hv_absorb",
	EvHvThrottle:   "hv_throttle",
	EvDrainStart:   "drain_start",
	EvDurable:      "durable",
	EvDumpStart:    "dump_start",
	EvDumpDone:     "dump_done",
	EvPowerFail:    "power_fail",
	EvPowerDC:      "power_dc_loss",
	EvPowerRestore: "power_restore",
	EvDrainError:   "drain_error",
	EvDegraded:     "degraded",
	EvRestored:     "restored",
	EvShip:         "ship",
	EvFrame:        "frame",
	EvNetSend:      "net_send",
	EvNetDeliver:   "net_deliver",
	EvNetDrop:      "net_drop",
	EvNetDup:       "net_dup",
	EvReplicaApply: "replica_apply",
	EvReplicaAck:   "replica_ack",
	EvQuorumMet:    "quorum_met",
	EvRepair:       "repair",
	EvEvict:        "evict",
	EvTrim:         "trim",
	EvEpoch:        "epoch",
	EvViolation:    "violation",
	EvElect:        "elect",
	EvFence:        "fence",
	EvPromote:      "promote",
	EvRedirect:     "redirect",
}

// kindByName is the inverse of kindNames, for decoding trace JSON.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// KindByName resolves a stable wire name back to its Kind; ok is false for
// unknown names.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// SpanID identifies one traced activity. Zero means "no span". Events link
// into trees via Parent: a tx span parents its WAL appends; a buffer-entry
// span parents the durable event that retires it.
type SpanID uint64

// Event is one typed trace record. Events are plain values in a ring that
// allocates a chunk at a time as it first fills: once the ring has wrapped,
// or within a chunk, emitting one allocates nothing.
type Event struct {
	At   time.Duration // virtual time since simulation start
	Kind Kind
	// Dom is the log domain that emitted the event: 0 is the machine itself
	// (power events) and the only domain of an unsharded machine, i+1 is
	// shard i (Obs.Shard). It sits in Kind's padding.
	Dom    uint8
	Span   SpanID
	Parent SpanID
	Arg1   int64
	Arg2   int64
}

// Tracer records Events into a fixed-capacity ring buffer. A nil Tracer is
// the disabled state: Emit and NewSpan are single-branch no-ops, which is
// what keeps the instrumented hot paths free when tracing is off. A shard's
// Tracer is a view of the machine's: it shares the ring, span ids, cause
// slot, labels, contract and observer, and stamps its own domain.
type Tracer struct {
	*ring
	dom uint8
}

type ring struct {
	// chunks hold the events, traceChunk to a chunk. A chunk is allocated
	// when the ring first reaches it, so a ring sized for a long run costs
	// a short one only what it records.
	chunks   [][]Event
	size     uint64 // capacity in events
	n        uint64 // total events emitted (ring head = n % size)
	nextSpan uint64

	// cause is the implicit causal context: a span id set by a caller just
	// before crossing a layer boundary whose interface carries no trace
	// context (disk.Device.Write, Replicator.Ship), and consumed by the
	// callee as its parent. The simulation is single-threaded and the
	// instrumented calls are synchronous, so a plain slot suffices.
	cause SpanID

	labels   map[string]int64
	labelSeq int64

	// contract is what the monitor armed on this tracer checks (NewMonitor
	// stamps it); every Dump carries it. Nil when no monitor is armed.
	contract *MonitorConfig

	observer  func(Event)
	notifying bool
}

// NewTracer creates an enabled tracer with the given ring capacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{ring: &ring{size: uint64(capacity)}}
}

// traceChunk is how many events one ring chunk holds (192 KiB).
const traceChunk = 4096

// slot returns the ring slot of the i-th event emitted.
func (r *ring) slot(i uint64) *Event {
	j := i % r.size
	return &r.chunks[j/traceChunk][j%traceChunk]
}

// SetCause plants the implicit causal context consumed by the next
// TakeCause. Callers set it immediately before a synchronous call into a
// layer whose interface has no trace-context parameter.
func (t *Tracer) SetCause(s SpanID) {
	if t != nil {
		t.cause = s
	}
}

// TakeCause consumes and clears the implicit causal context (zero when
// unset or disabled).
func (t *Tracer) TakeCause() SpanID {
	if t == nil {
		return 0
	}
	c := t.cause
	t.cause = 0
	return c
}

// ClearCause drops any planted causal context; callers use it after the
// callee returns so a cause never leaks across unrelated calls.
func (t *Tracer) ClearCause() {
	if t != nil {
		t.cause = 0
	}
}

// Label interns a name (an endpoint, a replica) and returns its stable
// small integer id for use in event args. Ids start at 1; zero means
// "no label" (and is all a nil tracer returns).
func (t *Tracer) Label(name string) int64 {
	if t == nil {
		return 0
	}
	if id, ok := t.labels[name]; ok {
		return id
	}
	if t.labels == nil {
		t.labels = make(map[string]int64)
	}
	t.labelSeq++
	t.labels[name] = t.labelSeq
	return t.labelSeq
}

// Labels returns a copy of the interned label table (name → id).
func (t *Tracer) Labels() map[string]int64 {
	if t == nil || len(t.labels) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.labels))
	for n, id := range t.labels {
		out[n] = id
	}
	return out
}

// SetObserver installs the single online subscriber invoked on every Emit
// (the invariant monitor / flight-recorder hook). Events emitted from
// inside the observer are recorded in the ring but do not re-enter the
// observer, so a subscriber may safely emit trace marks.
func (t *Tracer) SetObserver(fn func(Event)) {
	if t != nil {
		t.observer = fn
	}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// NewSpan allocates a span id (zero when disabled).
func (t *Tracer) NewSpan() SpanID {
	if t == nil {
		return 0
	}
	t.nextSpan++
	return SpanID(t.nextSpan)
}

// Emit records one event at virtual time `at`.
func (t *Tracer) Emit(at time.Duration, kind Kind, span, parent SpanID, arg1, arg2 int64) {
	if t == nil {
		return
	}
	e := Event{At: at, Kind: kind, Dom: t.dom, Span: span, Parent: parent, Arg1: arg1, Arg2: arg2}
	if j := t.n % t.size; j/traceChunk == uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([]Event, min(traceChunk, t.size-j)))
	}
	*t.slot(t.n) = e
	t.n++
	if t.observer != nil && !t.notifying {
		t.notifying = true
		t.observer(e)
		t.notifying = false
	}
}

// Emitted returns the total number of events emitted, including any the
// ring has since overwritten.
func (t *Tracer) Emitted() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	if t.n <= t.size {
		return 0
	}
	return int(t.n - t.size)
}

// Events returns the retained events in emission order (a copy).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	kept := min(t.n, t.size)
	out := make([]Event, kept)
	for i := range out {
		out[i] = *t.slot(t.n - kept + uint64(i))
	}
	return out
}
