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
	// Bound is the limit exposure was audited against (the lesser of the
	// configured MaxBuffer and the provable SafeBufferSize).
	Bound int64
	// PeakBytes is the maximum acknowledged-but-undrained bytes observed,
	// and PeakAt when it occurred.
	PeakBytes int64
	PeakAt    time.Duration
	// AckedBytes / DurableBytes / DumpedBytes total the lifecycle flows.
	AckedBytes   int64
	DurableBytes int64
	DumpedBytes  int64
	// OutstandingBytes were acknowledged but neither drained nor dumped by
	// the end of the trace — lost if the trace ends at a power cut, merely
	// in flight otherwise.
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

// AuditExposure replays trace events into the acknowledged-but-undrained
// byte count over time and checks its peak against bound. Exposure begins
// at EvHvAck, ends at EvDurable for the same span, and collapses to zero
// at EvDumpDone (everything still buffered is then safe in the dump zone).
func AuditExposure(events []Event, bound int64, truncated bool) ExposureReport {
	rep := ExposureReport{
		Bound:          bound,
		AckToDurable:   metrics.NewHistogram("rapilog.ack_to_durable"),
		TruncatedTrace: truncated,
	}
	outstanding := make(map[SpanID]ackInfo)
	var exposure int64
	record := func(at time.Duration) {
		if n := len(rep.Points); n > 0 && rep.Points[n-1].Bytes == exposure {
			return
		}
		rep.Points = append(rep.Points, ExposurePoint{At: at, Bytes: exposure})
		if exposure > rep.PeakBytes {
			rep.PeakBytes = exposure
			rep.PeakAt = at
		}
	}
	for _, e := range events {
		switch e.Kind {
		case EvHvAck:
			outstanding[e.Span] = ackInfo{at: e.At, bytes: e.Arg2}
			exposure += e.Arg2
			rep.AckedBytes += e.Arg2
			rep.Writes++
			record(e.At)
		case EvHvAbsorb:
			rep.Absorbed++
		case EvDrainStart:
			rep.DrainRounds++
		case EvDurable:
			if info, ok := outstanding[e.Parent]; ok {
				delete(outstanding, e.Parent)
				exposure -= info.bytes
				rep.DurableBytes += info.bytes
				rep.AckToDurable.Observe(e.At - info.at)
				record(e.At)
			}
		case EvDumpDone:
			// Everything still buffered reached the dump zone in one burst:
			// its exposure window closes here.
			rep.Dumps++
			for span, info := range outstanding {
				delete(outstanding, span)
				exposure -= info.bytes
				rep.DumpedBytes += info.bytes
				rep.AckToDurable.Observe(e.At - info.at)
			}
			record(e.At)
		}
	}
	for _, info := range outstanding {
		rep.OutstandingBytes += info.bytes
	}
	return rep
}
