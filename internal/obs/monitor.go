package obs

import (
	"fmt"
	"time"

	"repro/internal/metrics"
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
	// InvRetention: the shipper's retained (unacked) bytes must return
	// under RetainLimit within the eviction grace window.
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
	// the monitor calls it a violation — eviction of a dead replica
	// legitimately takes a probe round-trip plus DeadAfter.
	RetainGrace time.Duration `json:"retain_grace_ns"`
	// Reg, when set, receives violation counters and provides the
	// retention gauge ("repl.retained_bytes") the retention check reads.
	Reg *Registry `json:"-"`
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
// recorded trace through Consume). It never mutates the system: violations
// become counters, trace marks, samples, and an OnViolation callback — the
// flight recorder's freeze trigger.
type Monitor struct {
	cfg MonitorConfig

	// OnViolation, when set, is invoked on every detected violation.
	OnViolation func(Violation)

	events int

	// Exposure tracking (InvExposure).
	exposure     exposureLedger
	exposureOver bool // above bound; fire once per episode

	evidence ackLedger // InvAckEvidence

	// Ack-monotonicity tracking (InvAckMonotone).
	repAck map[int64]uint64 // replica label id → highest acked seq

	// Single-writer tracking (InvSingleWriter).
	lastEpoch int64

	// Retention tracking (InvRetention).
	retainGauge *metrics.Gauge
	retainOver  bool
	retainSince time.Duration
	retainFired bool

	counts  [invCount]int
	samples []Violation
	total   *metrics.Counter
	perInv  [invCount]*metrics.Counter
}

// NewMonitor creates a monitor and stamps its contract on cfg.Trace. Wire it
// to a live tracer with tracer.SetObserver(monitor.Consume) or feed it a
// recorded stream.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Trace != nil {
		contract := cfg
		contract.Reg, contract.Trace = nil, nil
		cfg.Trace.contract = &contract
	}
	m := &Monitor{
		cfg:      cfg,
		exposure: exposureLedger{outstanding: make(map[SpanID]ackInfo)},
		evidence: newAckLedger(cfg.QuorumK),
		repAck:   make(map[int64]uint64),
	}
	if cfg.Reg != nil {
		m.total = cfg.Reg.Counter("monitor.violations")
		for i := Invariant(0); i < invCount; i++ {
			m.perInv[i] = cfg.Reg.Counter("monitor.violations." + i.String())
		}
		if cfg.RetainLimit > 0 {
			m.retainGauge = cfg.Reg.Gauge("repl.retained_bytes")
		}
	}
	return m
}

func (m *Monitor) violate(inv Invariant, at time.Duration, detail string) {
	m.counts[inv]++
	if m.total != nil {
		m.total.Inc()
		m.perInv[inv].Inc()
	}
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

// Consume feeds one event through every invariant check.
func (m *Monitor) Consume(e Event) {
	if m == nil {
		return
	}
	m.events++
	m.exposure.apply(e, nil)
	m.evidence.apply(e)
	switch e.Kind {
	case EvHvAck:
		m.checkExposure(e.At)

	case EvDurable:
		if m.exposure.bytes <= m.cfg.Bound {
			m.exposureOver = false
		}

	case EvDumpDone:
		m.exposureOver = false

	case EvTxAck:
		if v := m.evidence.judge(e); v.missing != "" {
			m.violate(InvAckEvidence, e.At, v.detail)
		}

	case EvReplicaAck:
		prev := m.repAck[e.Arg2]
		if uint64(e.Arg1) < prev {
			m.violate(InvAckMonotone, e.At,
				fmt.Sprintf("replica %d acked seq %d after seq %d", e.Arg2, e.Arg1, prev))
		} else {
			m.repAck[e.Arg2] = uint64(e.Arg1)
		}

	case EvEpoch:
		// Single-writer-per-epoch: a shipper starting at an epoch at or
		// below one already seen means two streams could gather quorum
		// evidence concurrently — the split-brain the fencing protocol
		// exists to prevent.
		if e.Arg1 <= m.lastEpoch {
			m.violate(InvSingleWriter, e.At,
				fmt.Sprintf("shipper epoch %d began after epoch %d", e.Arg1, m.lastEpoch))
		} else {
			m.lastEpoch = e.Arg1
		}
		// A new shipper stream: sequence numbers restart.
		clear(m.repAck)

	case EvPowerRestore:
		// The machine rebooted: volatile state did not survive.
		m.exposureOver = false
		m.retainOver = false
		m.retainFired = false
	}
	m.Tick(e.At)
}

func (m *Monitor) checkExposure(at time.Duration) {
	if m.cfg.Bound <= 0 || m.exposure.bytes <= m.cfg.Bound {
		return
	}
	if !m.exposureOver {
		m.exposureOver = true
		m.violate(InvExposure, at,
			fmt.Sprintf("buffered %d bytes exceeds bound %d", m.exposure.bytes, m.cfg.Bound))
	}
}

// Tick re-checks the time-dependent retention invariant; Consume calls it
// on every event, and callers may call it directly on idle streams.
func (m *Monitor) Tick(at time.Duration) {
	if m == nil || m.cfg.RetainLimit <= 0 || m.retainGauge == nil {
		return
	}
	v := m.retainGauge.Value()
	if v <= m.cfg.RetainLimit {
		m.retainOver = false
		m.retainFired = false
		return
	}
	if !m.retainOver {
		m.retainOver = true
		m.retainSince = at
		return
	}
	if !m.retainFired && at-m.retainSince > m.cfg.RetainGrace {
		m.retainFired = true
		m.violate(InvRetention, at,
			fmt.Sprintf("retained %d bytes above limit %d for %v", v, m.cfg.RetainLimit, at-m.retainSince))
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
	rep := MonitorReport{EventsSeen: m.events, TxAcked: m.evidence.acked, Total: m.Total()}
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
// the offline form rapilog-trace -check runs on an artifact's contract. The
// retention check is skipped unless cfg.Reg carries the live gauge.
func RunMonitor(events []Event, cfg MonitorConfig) MonitorReport {
	m := NewMonitor(cfg)
	for _, e := range events {
		m.Consume(e)
	}
	return m.Report()
}
