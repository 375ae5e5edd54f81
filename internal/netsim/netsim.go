// Package netsim is a deterministic network fabric on the simulation's
// virtual clock: named endpoints exchange messages over point-to-point
// links with modelled latency, jitter and bandwidth, plus seeded loss,
// duplication and reordering, and explicit partition/heal controls.
//
// The fabric exists so the replication subsystem can be exercised under
// exactly the faults that make replication protocols hard — lost acks,
// duplicated records, records arriving out of order, a standby unreachable
// for a window — while every run stays bit-for-bit reproducible: all
// randomness comes from the fabric's own seeded generator and all delivery
// is scheduled on sim timers, so the same seed and the same send schedule
// produce the same delivery order, drops included.
//
// The fabric itself spawns no processes: Send schedules delivery callbacks
// on the simulation and returns immediately, so it is safe to call from
// any process (including interrupt-style contexts). Receivers block on
// their endpoint's signal, which keeps an idle fabric event-free — a
// simulation with nothing else to do still terminates.
package netsim

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// LinkConfig models one direction of a point-to-point link.
type LinkConfig struct {
	// Latency is the propagation delay; default 200µs (same-datacenter).
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per message; default
	// Latency/4.
	Jitter time.Duration
	// Bandwidth serialises messages on the link, bytes/s; default 125 MB/s
	// (a 1 Gbit NIC).
	Bandwidth float64
	// DropProb is the probability a message is lost in flight.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// ReorderProb is the probability a message is held back by an extra
	// 4 × Latency, letting later sends overtake it.
	ReorderProb float64
}

func (c *LinkConfig) applyDefaults() {
	if c.Latency == 0 {
		c.Latency = 200 * time.Microsecond
	}
	if c.Jitter == 0 {
		c.Jitter = c.Latency / 4
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 125e6
	}
}

// Refcounted is implemented by payloads whose backing memory is pooled by
// the sender. Delivery is by reference, so the fabric participates in the
// payload's lifetime: every Send consumes one reference (the sender must
// hold one per Send call), a duplicated delivery retains one more, any
// dropped copy is released by the fabric, and the receiver owns — and must
// Release — one reference per delivered message. A payload that does not
// implement Refcounted is delivered exactly as before.
type Refcounted interface {
	Retain()
	Release()
}

// Checksummer is implemented by payloads that can hash their own contents,
// letting the fabric's ownership check verify at delivery time that the
// payload still hashes to what it hashed at send time — catching a sender
// that mutated or recycled a message after Send, which the
// delivery-by-reference contract forbids.
type Checksummer interface {
	OwnershipSum() uint32
}

// Config parameterises a Fabric.
type Config struct {
	// Seed drives the fabric's private generator (drops, jitter, dup,
	// reorder). A fabric never touches the simulation's generator, so
	// enabling network faults does not perturb any other component.
	Seed int64
	// Link is the config of every directed link.
	Link LinkConfig
	// Reg, when set, registers the fabric's instruments centrally.
	Reg *obs.Registry
	// Trace, when set, records per-message net events (send, deliver,
	// drop, dup) carrying the sender's causal span, so a commit's path
	// across the wire is reconstructible.
	Trace *obs.Tracer
	// CheckOwnership verifies, at delivery time, that every Checksummer
	// payload still hashes to its send-time sum, panicking on a mismatch —
	// the cheap debug enforcement of Send's delivery-by-reference contract.
	// Forced on for every fabric by the `netsimcheck` build tag.
	CheckOwnership bool
}

// Message is one delivered datagram.
type Message struct {
	From, To string
	// Size in bytes; what the bandwidth model charged.
	Size    int
	Payload any
	// SentAt/DeliveredAt stamp the virtual-time flight.
	SentAt      sim.Time
	DeliveredAt sim.Time
}

type linkKey struct{ from, to string }

// link carries per-directed-link state: the time the link's transmitter
// frees up (bandwidth serialisation).
type link struct {
	busyUntil sim.Time
}

// stats holds the fabric's counters.
type stats struct {
	Sent           *metrics.Counter
	Delivered      *metrics.Counter
	Dropped        *metrics.Counter // lost to DropProb
	Duplicated     *metrics.Counter
	Reordered      *metrics.Counter
	PartitionDrops *metrics.Counter // lost to an active partition
	InFlightBytes  *metrics.Gauge
}

// Fabric is the message switch. All state is owned by the single-threaded
// simulation; no locking.
type Fabric struct {
	s     *sim.Sim
	cfg   Config
	rng   *rand.Rand
	eps   map[string]*Endpoint
	links map[linkKey]*link
	// isolated nodes cannot send or receive; the map is the partition.
	isolated map[string]bool
	stats    *stats
	tr       *obs.Tracer
	nodeIDs  map[string]int64 // endpoint name → interned trace label
	free     []*delivery      // delivery records not in flight
	made     int              // delivery records ever made
}

// New creates a fabric. The link config applies to every pair of endpoints.
func New(s *sim.Sim, cfg Config) *Fabric {
	cfg.Link.applyDefaults()
	cfg.CheckOwnership = cfg.CheckOwnership || Checked
	reg := cfg.Reg
	return &Fabric{
		s:        s,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		eps:      make(map[string]*Endpoint),
		links:    make(map[linkKey]*link),
		isolated: make(map[string]bool),
		tr:       cfg.Trace,
		nodeIDs:  make(map[string]int64),
		stats: &stats{
			Sent:           reg.Counter("net.sent"),
			Delivered:      reg.Counter("net.delivered"),
			Dropped:        reg.Counter("net.dropped"),
			Duplicated:     reg.Counter("net.duplicated"),
			Reordered:      reg.Counter("net.reordered"),
			PartitionDrops: reg.Counter("net.partition_drops"),
			InFlightBytes:  reg.Gauge("net.inflight_bytes"),
		},
	}
}

// Endpoint returns the named endpoint, creating it on first use.
func (f *Fabric) Endpoint(name string) *Endpoint {
	if ep, ok := f.eps[name]; ok {
		return ep
	}
	ep := &Endpoint{f: f, name: name, sig: f.s.NewSignal("net." + name + ".inbox")}
	f.eps[name] = ep
	return ep
}

func (f *Fabric) link(from, to string) *link {
	k := linkKey{from, to}
	if l, ok := f.links[k]; ok {
		return l
	}
	l := &link{}
	f.links[k] = l
	return l
}

// Isolate cuts the named nodes off from the fabric: anything they send,
// and anything sent to them, is dropped at transmission time. Messages
// already in flight still arrive — the wire does not eat a packet because
// a switch port went down after it left.
func (f *Fabric) Isolate(names ...string) {
	for _, n := range names {
		f.isolated[n] = true
	}
}

// Heal lifts every isolation. Retransmission is the sender's problem, as
// on a real network.
func (f *Fabric) Heal() {
	for n := range f.isolated {
		delete(f.isolated, n)
	}
}

// Restore lifts the isolation of specific nodes, leaving any others cut
// off — a crashed standby rejoining a fabric that is still partitioned
// elsewhere.
func (f *Fabric) Restore(names ...string) {
	for _, n := range names {
		delete(f.isolated, n)
	}
}

// Isolated reports whether a node is currently cut off.
func (f *Fabric) Isolated(name string) bool { return f.isolated[name] }

// nodeID interns an endpoint name in the tracer's label table, caching the
// id so the send path does no map-of-strings work after first use.
func (f *Fabric) nodeID(name string) int64 {
	if f.tr == nil {
		return 0
	}
	if id, ok := f.nodeIDs[name]; ok {
		return id
	}
	id := f.tr.Label(name)
	f.nodeIDs[name] = id
	return id
}

func (f *Fabric) trace(kind obs.Kind, cause obs.SpanID, size int, to string) {
	if f.tr != nil {
		f.tr.Emit(f.s.Now().Duration(), kind, 0, cause, int64(size), f.nodeID(to))
	}
}

// release drops one payload reference when the fabric eats a copy.
func release(payload any) {
	if rc, ok := payload.(Refcounted); ok {
		rc.Release()
	}
}

// Send transmits size bytes of payload from one endpoint to another. It
// never blocks: delivery (or loss) is decided now, scheduled on the
// simulation, and Send returns. The payload is delivered by reference —
// senders must not reuse the backing memory after Send. Pooled payloads
// implement Refcounted (see its contract); the ownership check catches
// anyone who breaks the rule.
func (f *Fabric) Send(from, to string, size int, payload any) {
	f.SendCtx(from, to, size, payload, 0)
}

// SendCtx is Send with an explicit causal span carried through the trace:
// the resulting net events (and the drop, if the fabric eats the message)
// are parented under cause.
func (f *Fabric) SendCtx(from, to string, size int, payload any, cause obs.SpanID) {
	f.stats.Sent.Inc()
	if f.isolated[from] || f.isolated[to] {
		f.stats.PartitionDrops.Inc()
		f.trace(obs.EvNetDrop, cause, size, to)
		release(payload)
		return
	}
	lk := f.link(from, to)
	if f.cfg.Link.DropProb > 0 && f.rng.Float64() < f.cfg.Link.DropProb {
		f.stats.Dropped.Inc()
		f.trace(obs.EvNetDrop, cause, size, to)
		release(payload)
		return
	}
	f.trace(obs.EvNetSend, cause, size, to)
	f.deliver(lk, from, to, size, payload, false, cause)
	if f.cfg.Link.DupProb > 0 && f.rng.Float64() < f.cfg.Link.DupProb {
		f.stats.Duplicated.Inc()
		f.trace(obs.EvNetDup, cause, size, to)
		if rc, ok := payload.(Refcounted); ok {
			rc.Retain() // the second in-flight copy owns its own reference
		}
		f.deliver(lk, from, to, size, payload, true, cause)
	}
}

// deliver schedules one copy of a message: serialise on the link's
// transmitter, add propagation latency and jitter, optionally hold the
// message back so later sends overtake it.
func (f *Fabric) deliver(lk *link, from, to string, size int, payload any, dup bool, cause obs.SpanID) {
	xfer := time.Duration(float64(size) / f.cfg.Link.Bandwidth * float64(time.Second))
	start := f.s.Now()
	if lk.busyUntil > start {
		start = lk.busyUntil
	}
	lk.busyUntil = start.Add(xfer)
	delay := start.Sub(f.s.Now()) + xfer + f.cfg.Link.Latency
	if f.cfg.Link.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(f.cfg.Link.Jitter)))
	}
	if !dup && f.cfg.Link.ReorderProb > 0 && f.rng.Float64() < f.cfg.Link.ReorderProb {
		f.stats.Reordered.Inc()
		delay += 4 * f.cfg.Link.Latency
	}
	d := f.newDelivery()
	d.from, d.to, d.size, d.payload, d.cause, d.sentAt = from, to, size, payload, cause, f.s.Now()
	if f.cfg.CheckOwnership {
		if cs, ok := payload.(Checksummer); ok {
			d.sums, d.sentSum = cs, cs.OwnershipSum()
		}
	}
	f.stats.InFlightBytes.Add(int64(size))
	f.s.After(delay, d.arrive)
}

// delivery is one message copy in flight. Records are pooled on the fabric
// and their arrival callback is bound once, when the record is first made,
// so scheduling a delivery allocates nothing.
type delivery struct {
	f        *Fabric
	from, to string
	size     int
	payload  any
	cause    obs.SpanID
	sentAt   sim.Time
	sums     Checksummer // set when the ownership check applies
	sentSum  uint32
	arrive   func() // d.land, bound once
}

// newDelivery takes a record from the pool, or makes one.
func (f *Fabric) newDelivery() *delivery {
	if n := len(f.free); n > 0 {
		d := f.free[n-1]
		f.free = f.free[:n-1]
		return d
	}
	d := &delivery{f: f}
	d.arrive = d.land
	f.made++
	return d
}

// land is the arrival of one copy: dropped if the port came down while it
// was in flight, else checked and queued on the receiver's inbox. The
// record goes back to the pool first — nothing below schedules another
// delivery, and the payload reference now belongs to the inbox or is
// released.
func (d *delivery) land() {
	f := d.f
	from, to, size, payload, cause, sentAt := d.from, d.to, d.size, d.payload, d.cause, d.sentAt
	sums, sentSum := d.sums, d.sentSum
	*d = delivery{f: f, arrive: d.arrive}
	f.free = append(f.free, d)

	f.stats.InFlightBytes.Add(-int64(size))
	if f.isolated[to] {
		// The port came down while the packet was in flight.
		f.stats.PartitionDrops.Inc()
		f.trace(obs.EvNetDrop, cause, size, to)
		release(payload)
		return
	}
	if sums != nil && sums.OwnershipSum() != sentSum {
		panic("netsim: payload mutated in flight from " + from + " to " + to +
			" — the sender reused or rewrote a delivery-by-reference message after Send")
	}
	f.stats.Delivered.Inc()
	f.trace(obs.EvNetDeliver, cause, size, to)
	ep := f.Endpoint(to)
	ep.inbox = append(ep.inbox, Message{From: from, To: to, Size: size, Payload: payload, SentAt: sentAt, DeliveredAt: f.s.Now()})
	ep.sig.Broadcast()
}

// Endpoint is one named attachment point: an inbox plus a wakeup signal.
type Endpoint struct {
	f     *Fabric
	name  string
	inbox []Message
	head  int // consumed prefix of inbox
	sig   *sim.Signal
}

// inboxCompactAt is the consumed-prefix length past which TryRecv slides
// the unconsumed tail back to the front of the backing array. Without this
// an endpoint whose inbox never fully drains (a steady producer one message
// ahead of the consumer) appends forever: the consumed prefix is zeroed but
// its slots are never reclaimed, so the backing array grows for the life of
// the run.
const inboxCompactAt = 64

// TryRecv pops the oldest queued message without blocking.
func (e *Endpoint) TryRecv() (Message, bool) {
	if e.head == len(e.inbox) {
		return Message{}, false
	}
	m := e.inbox[e.head]
	e.inbox[e.head] = Message{}
	e.head++
	if e.head == len(e.inbox) {
		e.inbox = e.inbox[:0]
		e.head = 0
	} else if e.head >= inboxCompactAt && e.head >= len(e.inbox)/2 {
		n := copy(e.inbox, e.inbox[e.head:])
		clear(e.inbox[n:])
		e.inbox = e.inbox[:n]
		e.head = 0
	}
	return m, true
}

// Recv blocks p until a message is available and returns it.
func (e *Endpoint) Recv(p *sim.Proc) Message {
	for {
		if m, ok := e.TryRecv(); ok {
			return m
		}
		e.sig.Wait(p)
	}
}

// RecvUntil blocks p until a message is available or virtual time reaches
// t, whichever comes first: it returns a message the moment it is
// delivered, and reports false once t arrives with the inbox empty.
func (e *Endpoint) RecvUntil(p *sim.Proc, t sim.Time) (Message, bool) {
	for {
		if m, ok := e.TryRecv(); ok {
			return m, true
		}
		if p.Now() >= t {
			return Message{}, false
		}
		e.sig.WaitTimeout(p, t.Sub(p.Now()))
	}
}

// Send transmits from this endpoint.
func (e *Endpoint) Send(to string, size int, payload any) {
	e.f.Send(e.name, to, size, payload)
}

// SendCtx transmits from this endpoint with an explicit causal span.
func (e *Endpoint) SendCtx(to string, size int, payload any, cause obs.SpanID) {
	e.f.SendCtx(e.name, to, size, payload, cause)
}
