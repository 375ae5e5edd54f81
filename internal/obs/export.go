package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
)

// Snapshot is a point-in-time, JSON-serialisable copy of every instrument
// in a Registry. All durations are nanoseconds of virtual time.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]GaugeSnap     `json:"gauges"`
	Histograms map[string]HistogramSnap `json:"histograms"`
}

// GaugeSnap is a gauge's level and high-water mark. PeakDelta is only
// populated by Diff: how much the high-water mark rose during the
// interval (zero when the old peak still stands).
type GaugeSnap struct {
	Value     int64 `json:"value"`
	Peak      int64 `json:"peak"`
	PeakDelta int64 `json:"peak_delta,omitempty"`
}

// HistogramSnap is a histogram's summary statistics.
type HistogramSnap struct {
	Count  uint64 `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	MinNs  int64  `json:"min_ns"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

func snapHistogram(h *metrics.Histogram) HistogramSnap {
	return HistogramSnap{
		Count:  h.Count(),
		SumNs:  int64(h.Sum()),
		MinNs:  int64(h.Min()),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Quantile(0.50)),
		P90Ns:  int64(h.Quantile(0.90)),
		P95Ns:  int64(h.Quantile(0.95)),
		P99Ns:  int64(h.Quantile(0.99)),
		MaxNs:  int64(h.Max()),
	}
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnap),
		Histograms: make(map[string]HistogramSnap),
	}
	if r == nil {
		return snap
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = GaugeSnap{Value: g.Value(), Peak: g.Peak()}
	}
	for name, h := range r.hists {
		snap.Histograms[name] = snapHistogram(h)
	}
	return snap
}

// Diff returns the per-instrument change from prev to s, so a long
// campaign can report per-interval rates instead of lifetime totals
// (replication lag per phase, drained bytes per window, …).
//
// Counters subtract. Gauges report the level change, with Peak carrying
// s's absolute high-water mark — a peak is not a rate and cannot be
// meaningfully subtracted — and PeakDelta carrying how much the mark rose
// during the interval. Histograms report the interval's Count/Sum and
// the Mean recomputed from those deltas; the order statistics (min,
// quantiles, max) are whole-run properties with no subtractive form and
// are zeroed. Instruments absent from prev (registered mid-interval) diff against
// zero.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnap),
		Histograms: make(map[string]HistogramSnap),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, g := range s.Gauges {
		p := prev.Gauges[name]
		gd := GaugeSnap{Value: g.Value - p.Value, Peak: g.Peak}
		if g.Peak > p.Peak {
			gd.PeakDelta = g.Peak - p.Peak
		}
		d.Gauges[name] = gd
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		dh := HistogramSnap{Count: h.Count - p.Count, SumNs: h.SumNs - p.SumNs}
		if dh.Count > 0 {
			dh.MeanNs = dh.SumNs / int64(dh.Count)
		}
		d.Histograms[name] = dh
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON. encoding/json emits map
// keys sorted, so the artifact is byte-stable across same-seed runs.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LatencyTable renders every histogram in the snapshot as an aligned
// stage-latency table, sorted by name — the human-readable counterpart of
// the JSON export, used in run reports.
func (s Snapshot) LatencyTable() *metrics.Table {
	t := latencyTable("stage")
	for _, n := range sortedKeys(s.Histograms) {
		latencyRow(t, n, s.Histograms[n])
	}
	return t
}

// latencyTable starts a latency table whose rows latencyRow adds; first
// names its row column.
func latencyTable(first string) *metrics.Table {
	return metrics.NewTable(first, "n", "mean", "p50", "p95", "p99", "max")
}

// latencyRow adds one histogram's count, mean and tail to a latency table,
// rounded to the microsecond; an empty histogram adds no row.
func latencyRow(t *metrics.Table, name string, h HistogramSnap) {
	if h.Count == 0 {
		return
	}
	us := func(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }
	t.AddRow(name, fmt.Sprintf("%d", h.Count), us(h.MeanNs), us(h.P50Ns), us(h.P95Ns), us(h.P99Ns), us(h.MaxNs))
}

// WireEvent is the wire form of a trace event.
type WireEvent struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Dom    uint8  `json:"dom,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Arg1   int64  `json:"arg1,omitempty"`
	Arg2   int64  `json:"arg2,omitempty"`
}

// ToWire converts an in-memory event to its wire form.
func (e Event) ToWire() WireEvent {
	return WireEvent{
		AtNs: int64(e.At), Kind: e.Kind.String(), Dom: e.Dom,
		Span: uint64(e.Span), Parent: uint64(e.Parent),
		Arg1: e.Arg1, Arg2: e.Arg2,
	}
}

// Decode converts a wire event back to its in-memory form; it fails on an
// unknown kind name so malformed traces are caught rather than silently
// analysed as empty.
func (w WireEvent) Decode() (Event, error) {
	k, ok := KindByName(w.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", w.Kind)
	}
	return Event{
		At: time.Duration(w.AtNs), Kind: k, Dom: w.Dom,
		Span: SpanID(w.Span), Parent: SpanID(w.Parent),
		Arg1: w.Arg1, Arg2: w.Arg2,
	}, nil
}

// TraceDump is a self-contained, JSON-serialisable copy of a tracer's
// retained events, the label table needed to resolve endpoint and replica
// ids in event args, and the contract the run was checked against — nil when
// no monitor was armed.
type TraceDump struct {
	Contract *MonitorConfig   `json:"contract,omitempty"`
	Emitted  int              `json:"emitted"`
	Dropped  int              `json:"dropped"`
	Labels   map[string]int64 `json:"labels,omitempty"`
	Events   []WireEvent      `json:"events"`
}

// Dump captures the tracer's retained events, label table and contract.
func (t *Tracer) Dump() TraceDump { return t.dumpLast(t.Emitted()) }

// dumpLast is Dump keeping only the newest n retained events; the rest count
// as dropped.
func (t *Tracer) dumpLast(n int) TraceDump {
	if t == nil {
		return TraceDump{Events: []WireEvent{}}
	}
	n = min(n, t.Emitted()-t.Dropped())
	d := TraceDump{
		Contract: t.contract,
		Emitted:  t.Emitted(), Dropped: t.Emitted() - n,
		Labels: t.Labels(),
		Events: make([]WireEvent, n),
	}
	for i := range d.Events {
		d.Events[i] = t.slot(t.n - uint64(n-i)).ToWire()
	}
	return d
}

// WriteJSON writes the dump as compact JSON.
func (d TraceDump) WriteJSON(w io.Writer) error { return json.NewEncoder(w).Encode(d) }

// DecodedEvents converts the wire events back to in-memory form, failing
// on the first malformed event.
func (d TraceDump) DecodedEvents() ([]Event, error) {
	out := make([]Event, len(d.Events))
	for i, w := range d.Events {
		e, err := w.Decode()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out[i] = e
	}
	return out, nil
}
