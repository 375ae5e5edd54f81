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
	// PeakBytes is the maximum acknowledged-but-undrained bytes observed,
	// and PeakAt when it occurred.
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
	// Points is the full exposure time-series.
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
// (exposureLedger), and checks its peak against bound.
func AuditExposure(events []Event, bound int64, truncated bool) ExposureReport {
	rep := ExposureReport{
		Bound:          bound,
		AckToDurable:   metrics.NewHistogram("rapilog.ack_to_durable"),
		TruncatedTrace: truncated,
	}
	led := exposureLedger{outstanding: make(map[SpanID]ackInfo)}
	for _, e := range events {
		before := led.bytes
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
		if led.bytes != before {
			rep.Points = append(rep.Points, ExposurePoint{At: e.At, Bytes: led.bytes})
			if led.bytes > rep.PeakBytes {
				rep.PeakBytes, rep.PeakAt = led.bytes, e.At
			}
		}
	}
	for _, info := range led.outstanding {
		rep.OutstandingBytes += info.bytes
	}
	return rep
}
