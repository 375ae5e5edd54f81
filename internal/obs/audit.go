package obs

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// ExposurePoint is one step of the exposure time-series: from At onward,
// Bytes of acknowledged-but-not-yet-durable data were at risk.
type ExposurePoint struct {
	At    time.Duration
	Bytes int64
}

// ExposureReport is the durability-exposure audit: the quantitative side
// of RapiLog's safety argument, derived entirely from trace events.
type ExposureReport struct {
	// Bound is the limit exposure was audited against: the machine's
	// contract bound (MonitorConfig.Bound), the same one its monitor checks.
	Bound int64
	// PeakBytes is the maximum acknowledged-but-undrained bytes one log
	// domain held (the bound is per domain), and PeakAt when it occurred.
	PeakBytes int64
	PeakAt    time.Duration
	// AckedBytes / DurableBytes / DumpedBytes total the lifecycle flows.
	AckedBytes   int64
	DurableBytes int64
	DumpedBytes  int64
	// OutstandingBytes were acknowledged but neither drained nor dumped:
	// lost when a power restore found them undumped, or when the trace ends
	// at a power cut; merely in flight when it ends otherwise.
	OutstandingBytes int64
	// AckToDurable is the per-write latency from hypervisor ack to
	// durable-on-disk (drain) or safe-in-dump-zone (emergency dump) —
	// the exposure window of each individual write.
	AckToDurable *metrics.Histogram
	// Writes, Absorbed, DrainRounds and Dumps count lifecycle events.
	Writes      int
	Absorbed    int
	DrainRounds int
	Dumps       int
	// Points is the full exposure time-series, summed over the domains.
	Points []ExposurePoint
	// TruncatedTrace records that the ring buffer overwrote events; the
	// audit may then under- or over-state exposure.
	TruncatedTrace bool
}

// Violated reports whether peak exposure exceeded the bound.
func (r ExposureReport) Violated() bool { return r.PeakBytes > r.Bound }

// Verdict is a one-line human-readable summary.
func (r ExposureReport) Verdict() string {
	status := "OK"
	if r.Violated() {
		status = "VIOLATED"
	}
	note := ""
	if r.TruncatedTrace {
		note = " [trace truncated; audit approximate — raise the trace capacity]"
	}
	return fmt.Sprintf("exposure %s: peak %d B at %v vs bound %d B (acked %d B, durable %d B, dumped %d B, outstanding %d B)%s",
		status, r.PeakBytes, r.PeakAt, r.Bound, r.AckedBytes, r.DurableBytes, r.DumpedBytes, r.OutstandingBytes, note)
}

// domains is the one routing rule the monitor, the exposure audit and the
// analyzer apply to their per-log-domain state: an event updates only its own
// domain's (Event.Dom), and a domain-0 event — the machine's own, a power
// event say — updates every domain's. An unsharded machine is domain 0 alone.
type domains[T any] struct {
	all   []*T // by domain, up to the highest seen
	fresh func(dom uint8) *T
}

// route returns the states an event of domain dom updates, its own first.
func (d *domains[T]) route(dom uint8) []*T {
	for int(dom) >= len(d.all) {
		d.all = append(d.all, d.fresh(uint8(len(d.all))))
	}
	if dom == 0 {
		return d.all
	}
	return d.all[dom : dom+1]
}

type ackInfo struct {
	at    time.Duration
	bytes int64
}

// exposureLedger is the one exposure rule the online monitor and the offline
// audit both apply. Exposure begins at EvHvAck and ends for that entry at its
// EvDurable; EvDumpDone ends it for everything still buffered (the dump image
// holds it), and so does EvPowerRestore (what no dump saved did not survive
// the reboot). EvHvAbsorb is neutral: it supersedes an equal-length buffered
// entry in place without growing the buffer.
type exposureLedger struct {
	bytes       int64
	outstanding map[SpanID]ackInfo // entry span → ack time and bytes
}

// apply folds e into the ledger and, when end is set, calls it once for each
// entry whose exposure e ends.
func (l *exposureLedger) apply(e Event, end func(ackInfo)) {
	switch e.Kind {
	case EvHvAck:
		l.outstanding[e.Span] = ackInfo{at: e.At, bytes: e.Arg2}
		l.bytes += e.Arg2
	case EvDurable:
		if info, ok := l.outstanding[e.Parent]; ok {
			delete(l.outstanding, e.Parent)
			l.bytes -= info.bytes
			if end != nil {
				end(info)
			}
		}
	case EvDumpDone, EvPowerRestore:
		if end != nil {
			for _, info := range l.outstanding {
				end(info)
			}
		}
		clear(l.outstanding)
		l.bytes = 0
	}
}

// AuditExposure replays trace events into the acknowledged-but-undrained
// byte count over time, by the rule the online monitor applies
// (exposureLedger, per log domain), and checks its peak against bound.
func AuditExposure(events []Event, bound int64, truncated bool) ExposureReport {
	rep := ExposureReport{
		Bound:          bound,
		AckToDurable:   metrics.NewHistogram("rapilog.ack_to_durable"),
		TruncatedTrace: truncated,
	}
	leds := domains[exposureLedger]{fresh: func(uint8) *exposureLedger {
		return &exposureLedger{outstanding: make(map[SpanID]ackInfo)}
	}}
	var total int64
	for _, e := range events {
		before := total
		for _, led := range leds.route(e.Dom) {
			total -= led.bytes
			led.apply(e, func(info ackInfo) {
				switch e.Kind {
				case EvDurable:
					rep.DurableBytes += info.bytes
				case EvDumpDone:
					rep.DumpedBytes += info.bytes
				case EvPowerRestore:
					rep.OutstandingBytes += info.bytes // no dump saved it
					return
				}
				rep.AckToDurable.Observe(e.At - info.at)
			})
			total += led.bytes
			if led.bytes > rep.PeakBytes {
				rep.PeakBytes, rep.PeakAt = led.bytes, e.At
			}
		}
		switch e.Kind {
		case EvHvAck:
			rep.AckedBytes += e.Arg2
			rep.Writes++
		case EvHvAbsorb:
			rep.Absorbed++
		case EvDrainStart:
			rep.DrainRounds++
		case EvDumpDone:
			rep.Dumps++
		}
		if total != before {
			rep.Points = append(rep.Points, ExposurePoint{At: e.At, Bytes: total})
		}
	}
	for _, led := range leds.all {
		for _, info := range led.outstanding {
			rep.OutstandingBytes += info.bytes
		}
	}
	return rep
}

// ackLedger is the one ack-evidence rule — invariant 2, acked ⊆ durable under
// the contract's policy — that the online monitor and the offline analyzer
// both apply, in stream order. A tx_ack is evidenced when, as it is emitted,
// a completed force has covered the transaction's commit LSN (its highest
// wal_append) and, under a quorum policy (quorumK ≥ 1), a quorum_met claiming
// k ≥ quorumK has been seen for the highest sequence shipped by that force or
// any force completed before it. A force's writes are its hv_ack and
// hv_absorb events — an absorbed rewrite ships new bytes under the force that
// issued it — and a write's sequence is its ship's. Work leaves the ledger as
// it completes: a write with its force at log_complete, a transaction at its
// tx_ack.
type ackLedger struct {
	quorumK   int
	txs       map[SpanID]txCover // tx span → commit LSN and its first cover
	uncovered []SpanID           // txs whose LSN no force has covered yet
	writes    []write            // the writes of forces not yet complete
	shippedHi uint64             // highest seq shipped by a completed force
	quorumHi  uint64             // highest seq with a quorum_met of k ≥ quorumK
}

// write is an hv_ack or hv_absorb, the force that issued it and, once it has
// shipped, its sequence. Few forces are in flight at once, so a slice serves,
// and it keeps the monitor, which runs on the writer's own stack, out of the
// map code there.
type write struct {
	span, force SpanID
	seq         uint64
}

// txCover is a transaction's commit LSN and the first force that covered it.
type txCover struct {
	lsn     int64
	covered bool
	force   SpanID
	need    uint64 // shippedHi as that force completed: the quorum the ack needs
}

// ackVerdict is the ledger's judgement of one tx_ack.
type ackVerdict struct {
	lsn     int64  // the commit LSN; zero when the tx wrote nothing the ledger saw
	force   SpanID // the covering force, once one had completed
	missing string // the evidence the ack lacked; empty when it had it
	detail  string // missing, with the numbers behind it
}

// The evidence an ack can lack: the monitor's violations and the analyzer's
// incomplete chains are both counted under these.
const (
	missingFlush  = "acked before a covering flush"
	missingQuorum = "acked before quorum_met for its force's records"
)

func newAckLedger(quorumK int) ackLedger {
	return ackLedger{
		quorumK: quorumK,
		txs:     make(map[SpanID]txCover),
	}
}

// apply folds e into the ledger; a tx_ack goes to judge instead.
func (l *ackLedger) apply(e Event) {
	switch e.Kind {
	case EvWalAppend:
		if c, ok := l.txs[e.Parent]; e.Arg1 > c.lsn {
			if !ok || c.covered {
				l.uncovered = append(l.uncovered, e.Parent)
			}
			l.txs[e.Parent] = txCover{lsn: e.Arg1}
		}
	case EvHvAck, EvHvAbsorb:
		// Only a quorum policy reads shipped sequences.
		if l.quorumK > 0 && e.Parent != 0 {
			l.writes = append(l.writes, write{span: e.Span, force: e.Parent})
		}
	case EvShip:
		for i := len(l.writes) - 1; i >= 0; i-- {
			if l.writes[i].span == e.Parent {
				l.writes[i].seq = uint64(e.Arg1)
				break
			}
		}
	case EvLogComplete:
		kept := l.writes[:0]
		for _, w := range l.writes {
			if w.force == e.Parent {
				l.shippedHi = max(l.shippedHi, w.seq)
			} else {
				kept = append(kept, w)
			}
		}
		l.writes = kept
		open := l.uncovered[:0]
		for _, tx := range l.uncovered {
			switch c, ok := l.txs[tx]; {
			case !ok: // acked before a cover
			case c.lsn <= e.Arg1:
				l.txs[tx] = txCover{lsn: c.lsn, covered: true, force: e.Parent, need: l.shippedHi}
			default:
				open = append(open, tx)
			}
		}
		l.uncovered = open
	case EvQuorumMet:
		if e.Arg2 >= int64(l.quorumK) {
			l.quorumHi = max(l.quorumHi, uint64(e.Arg1))
		}
	case EvPowerRestore, EvEpoch:
		// A reboot ends every transaction and write in flight. A new shipper
		// stream restarts sequence numbers, so no cover already granted —
		// each names the sequence it waits for — and no mark counts.
		if e.Kind == EvPowerRestore {
			clear(l.txs)
		}
		l.uncovered = l.uncovered[:0]
		for tx, c := range l.txs {
			l.txs[tx] = txCover{lsn: c.lsn}
			l.uncovered = append(l.uncovered, tx)
		}
		l.writes, l.shippedHi, l.quorumHi = l.writes[:0], 0, 0
	}
}

// judge decides whether a tx_ack had its policy's evidence. It is the only
// place that does.
func (l *ackLedger) judge(e Event) ackVerdict {
	c, ok := l.txs[e.Parent]
	if !ok {
		return ackVerdict{} // read-only, or its records preceded the window
	}
	delete(l.txs, e.Parent)
	v := ackVerdict{lsn: c.lsn, force: c.force}
	switch {
	case !c.covered:
		v.missing = missingFlush
		v.detail = fmt.Sprintf("%s: commit lsn %d", missingFlush, c.lsn)
	case l.quorumK > 0 && l.quorumHi < c.need:
		v.missing = missingQuorum
		v.detail = fmt.Sprintf("%s: commit lsn %d needs seq %d, quorum high is %d", missingQuorum, c.lsn, c.need, l.quorumHi)
	}
	return v
}
