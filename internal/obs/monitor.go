package obs

import (
	"fmt"
	"time"
)

// Invariant identifies one of the runtime-checked safety properties. The
// monitor is the paper's verification theme applied at runtime: the same
// exposure and acknowledgement invariants the design argues statically are
// re-checked continuously against the live event stream.
type Invariant int

const (
	// InvExposure: acknowledged-but-undrained bytes must stay within the
	// contract's Bound — the provably dumpable min(MaxBuffer,
	// SafeBufferSize), or the configured buffer under remote-only acks.
	InvExposure Invariant = iota
	// InvAckEvidence: no EvTxAck may precede its policy's durability
	// evidence — local flush covering the commit LSN, plus (QuorumK ≥ 1)
	// EvQuorumMet for every record the covering force shipped (ackLedger).
	InvAckEvidence
	// InvRetention: the shipper's retained bytes, as its ship and trim
	// events state them, must return under RetainLimit within the grace.
	InvRetention
	// InvAckMonotone: each replica's cumulative ack sequence must never
	// regress.
	InvAckMonotone
	// InvSingleWriter: shipper epochs must be strictly increasing — at most
	// one epoch is ever live, so a second writer starting at an old or equal
	// epoch (a split brain: a deposed primary still committing) is a
	// violation.
	InvSingleWriter

	invCount
)

var invariantNames = [invCount]string{
	InvExposure:     "exposure_bound",
	InvAckEvidence:  "ack_without_evidence",
	InvRetention:    "retention_bound",
	InvAckMonotone:  "ack_monotonicity",
	InvSingleWriter: "single_writer_epoch",
}

// String returns the invariant's stable wire name.
func (i Invariant) String() string {
	if i >= 0 && i < invCount {
		return invariantNames[i]
	}
	return "unknown"
}

// MonitorConfig parameterises a Monitor. Its data fields are the contract a
// run is checked against: a monitor armed on a tracer stamps them on it, so
// every dump of that tracer carries them and can be re-checked offline.
type MonitorConfig struct {
	// Bound is the exposure limit in bytes; zero disables the exposure
	// check (a machine with no RapiLog buffer exposes nothing).
	Bound int64 `json:"bound"`
	// QuorumK is the ack policy whose evidence InvAckEvidence demands: zero
	// acks on local flush evidence alone; K ≥ 1 additionally requires an
	// EvQuorumMet for every shipped record whose claimed k (Arg2) is at
	// least K. A remote-only deployment is a quorum policy with the exposure
	// Bound its owner chooses.
	QuorumK int `json:"quorum_k"`
	// RetainLimit is the shipper's retention bound in bytes; zero disables
	// the retention check.
	RetainLimit int64 `json:"retain_limit"`
	// RetainGrace is how long retention may sit above RetainLimit before
	// the monitor calls it a violation — the shipper trims at its next ack
	// or probe round, so a write can overshoot for up to that long.
	RetainGrace time.Duration `json:"retain_grace_ns"`
	// Trace, when set, receives an EvViolation trace mark per violation and
	// carries the contract in its dumps.
	Trace *Tracer `json:"-"`
}

// maxSamples bounds the retained violation details.
const maxSamples = 32

// Violation is one detected invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	AtNs      int64  `json:"at_ns"`
	Detail    string `json:"detail"`
}

// At returns the violation's virtual time.
func (v Violation) At() time.Duration { return time.Duration(v.AtNs) }

// MonitorReport summarises what a Monitor checked and found.
type MonitorReport struct {
	EventsSeen int            `json:"events_seen"`
	TxAcked    int            `json:"tx_acked"`
	Total      int            `json:"total_violations"`
	ByKind     map[string]int `json:"by_invariant,omitempty"`
	Samples    []Violation    `json:"samples,omitempty"`
}

// Monitor re-checks the system's safety invariants online, consuming the
// trace event stream (install it as the tracer's observer, or replay a
// recorded trace through Consume) and nothing else, so a replay of an
// artifact reaches the live verdict. It never mutates the system: violations
// become counts, trace marks, samples, and an OnViolation callback — the
// flight recorder's freeze trigger. Each log domain is judged on its own
// (domains); a violation in shard i says so in its Detail.
type Monitor struct {
	cfg MonitorConfig

	// OnViolation, when set, is invoked on every detected violation.
	OnViolation func(Violation)

	events, acked int
	doms          domains[monitorDomain]

	counts  [invCount]int
	samples []Violation
}

// monitorDomain is one log domain's invariant state; every domain is checked
// against the one contract.
type monitorDomain struct {
	dom uint8

	// Exposure tracking (InvExposure).
	exposure     exposureLedger
	exposureOver bool // above bound; fire once per episode

	evidence ackLedger // InvAckEvidence

	// Ack-monotonicity tracking (InvAckMonotone).
	repAck map[int64]uint64 // replica label id → highest acked seq

	// Single-writer tracking (InvSingleWriter).
	lastEpoch int64

	// Retention tracking (InvRetention): the domain's shipper's retained
	// bytes, from its epoch, ship and trim events.
	retained    int64
	retainOver  bool
	retainSince time.Duration
	retainFired bool
}

// NewMonitor creates a monitor and stamps its contract on cfg.Trace. Wire it
// to a live tracer with tracer.SetObserver(monitor.Consume) or feed it a
// recorded stream.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Trace != nil {
		contract := cfg
		contract.Trace = nil
		cfg.Trace.contract = &contract
	}
	m := &Monitor{cfg: cfg}
	m.doms.fresh = func(dom uint8) *monitorDomain {
		return &monitorDomain{
			dom:      dom,
			exposure: exposureLedger{outstanding: make(map[SpanID]ackInfo)},
			evidence: newAckLedger(cfg.QuorumK),
			repAck:   make(map[int64]uint64),
		}
	}
	return m
}

func (m *Monitor) violate(d *monitorDomain, inv Invariant, at time.Duration, detail string) {
	if d.dom > 0 {
		detail = fmt.Sprintf("shard %d: %s", d.dom-1, detail)
	}
	m.counts[inv]++
	v := Violation{Invariant: inv.String(), AtNs: int64(at), Detail: detail}
	if len(m.samples) < maxSamples {
		m.samples = append(m.samples, v)
	}
	// Safe from inside an observer callback: nested Emits are recorded but
	// not re-notified, so this cannot recurse.
	m.cfg.Trace.Emit(at, EvViolation, 0, 0, int64(inv), int64(m.counts[inv]))
	if m.OnViolation != nil {
		m.OnViolation(v)
	}
}

// violatef is violate with the detail formatted here, not in Consume: Consume
// runs on the emitting process's stack, and formatting temporaries in its
// frame are enough to make short-lived processes grow (copy) their stacks.
func (m *Monitor) violatef(d *monitorDomain, inv Invariant, at time.Duration, format string, args ...int64) {
	a := make([]any, len(args))
	for i, v := range args {
		a[i] = v
	}
	m.violate(d, inv, at, fmt.Sprintf(format, a...))
}

// Consume feeds one event through every invariant check of the domains it
// updates, the time-dependent retention check included.
func (m *Monitor) Consume(e Event) {
	if m == nil {
		return
	}
	m.events++
	for _, d := range m.doms.route(e.Dom) {
		d.exposure.apply(e, nil)
		d.evidence.apply(e)
		switch e.Kind {
		case EvHvAck:
			if m.cfg.Bound > 0 && d.exposure.bytes > m.cfg.Bound && !d.exposureOver {
				d.exposureOver = true
				m.violatef(d, InvExposure, e.At, "buffered %d bytes exceeds bound %d", d.exposure.bytes, m.cfg.Bound)
			}

		case EvDurable:
			if d.exposure.bytes <= m.cfg.Bound {
				d.exposureOver = false
			}

		case EvDumpDone:
			d.exposureOver = false

		case EvTxAck:
			m.acked++
			if v := d.evidence.judge(e); v.missing != "" {
				m.violate(d, InvAckEvidence, e.At, v.detail)
			}

		case EvReplicaAck:
			prev := d.repAck[e.Arg2]
			if uint64(e.Arg1) < prev {
				m.violatef(d, InvAckMonotone, e.At, "replica %d acked seq %d after seq %d", e.Arg2, e.Arg1, int64(prev))
			} else {
				d.repAck[e.Arg2] = uint64(e.Arg1)
			}

		case EvShip:
			d.retained += e.Arg2

		case EvTrim:
			// A deposed leader's shipper trimming its own stream says
			// nothing about the live epoch's.
			if e.Arg1 >= d.lastEpoch {
				d.retained = e.Arg2
			}

		case EvEpoch:
			// Single-writer-per-epoch: a shipper starting at an epoch at or
			// below one already seen means two streams could gather quorum
			// evidence concurrently — the split-brain the fencing protocol
			// exists to prevent.
			if e.Arg1 <= d.lastEpoch {
				m.violatef(d, InvSingleWriter, e.At, "shipper epoch %d began after epoch %d", e.Arg1, d.lastEpoch)
			} else {
				d.lastEpoch = e.Arg1
			}
			// A new shipper stream: sequence numbers restart, nothing retained.
			clear(d.repAck)
			d.retained = 0

		case EvPowerRestore:
			// The machine rebooted: volatile state did not survive.
			d.exposureOver = false
			d.retainOver = false
			d.retainFired = false
		}

		// Retention is time-dependent: every event the domain sees re-checks it.
		if m.cfg.RetainLimit == 0 {
			continue
		}
		switch v := d.retained; {
		case v <= m.cfg.RetainLimit:
			d.retainOver, d.retainFired = false, false
		case !d.retainOver:
			d.retainOver, d.retainSince = true, e.At
		case !d.retainFired && e.At-d.retainSince > m.cfg.RetainGrace:
			d.retainFired = true
			m.violatef(d, InvRetention, e.At, "retained %d bytes above limit %d for %d ms",
				v, m.cfg.RetainLimit, int64((e.At-d.retainSince)/time.Millisecond))
		}
	}
}

// Total returns the number of violations detected so far.
func (m *Monitor) Total() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, c := range m.counts {
		n += c
	}
	return n
}

// Report summarises the monitor's findings.
func (m *Monitor) Report() MonitorReport {
	if m == nil {
		return MonitorReport{}
	}
	rep := MonitorReport{EventsSeen: m.events, TxAcked: m.acked, Total: m.Total()}
	if rep.Total > 0 {
		rep.ByKind = make(map[string]int)
		for i := Invariant(0); i < invCount; i++ {
			if m.counts[i] > 0 {
				rep.ByKind[i.String()] = m.counts[i]
			}
		}
		rep.Samples = m.samples
	}
	return rep
}

// RunMonitor replays a recorded event stream through a fresh monitor —
// the offline form rapilog-trace -check runs on an artifact's contract. All
// five invariants are functions of the events: a replay of what the live
// monitor saw reaches its verdict.
func RunMonitor(events []Event, cfg MonitorConfig) MonitorReport {
	m := NewMonitor(cfg)
	for _, e := range events {
		m.Consume(e)
	}
	return m.Report()
}
