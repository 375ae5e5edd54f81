package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
	"unsafe"
)

func TestNilObsAccessorsAreSafe(t *testing.T) {
	var o *Obs
	if o.Tracer().Enabled() {
		t.Fatal("nil Obs must yield a disabled tracer")
	}
	o.Tracer().Emit(0, EvTxBegin, 0, 0, 0, 0) // must not panic
	if o.Tracer().NewSpan() != 0 {
		t.Fatal("disabled tracer must hand out span 0")
	}
	c := o.Registry().Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter must still count")
	}
}

func TestNewGatesTracerOnConfig(t *testing.T) {
	off := New(Config{})
	if off.Tracer().Enabled() {
		t.Fatal("tracer must be disabled by default")
	}
	if off.Registry() == nil {
		t.Fatal("registry must always be live")
	}
	on := New(Config{TraceEnabled: true, TraceCapacity: 8})
	if !on.Tracer().Enabled() {
		t.Fatal("tracer must be enabled when configured")
	}
}

// The ring keeps the newest events, oldest first, whether it fits in one
// chunk or spans several and ends in a partial one.
func TestTracerRingWrapsAndKeepsOrder(t *testing.T) {
	for _, size := range []int{4, 2*traceChunk + 5} {
		tr := NewTracer(size)
		emitted := size + 3 + traceChunk/2
		for i := 0; i < emitted; i++ {
			tr.Emit(time.Duration(i), EvTxBegin, SpanID(i), 0, int64(i), 0)
		}
		if tr.Emitted() != emitted || tr.Dropped() != emitted-size {
			t.Fatalf("ring of %d: emitted %d, dropped %d", size, tr.Emitted(), tr.Dropped())
		}
		events := tr.Events()
		if len(events) != size {
			t.Fatalf("ring of %d retained %d events", size, len(events))
		}
		for i, e := range events {
			if want := int64(emitted - size + i); e.Arg1 != want {
				t.Fatalf("ring of %d: event %d has Arg1 %d; want %d (oldest-first order)", size, i, e.Arg1, want)
			}
		}
	}
}

// A shard's view stamps its log domain on every event it emits, in Kind's
// padding, and shares everything else: the ring, span ids, labels, and the
// registry under the shard's prefix. The domain survives the wire; an
// unsharded event's wire form is what it was before domains existed.
func TestShardViewStampsItsDomain(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 48 {
		t.Fatalf("Event is %d bytes, want 48", n)
	}
	o := New(Config{TraceEnabled: true, TraceCapacity: 8})
	sh := o.Shard(1)
	sh.Registry().Counter("engine.commits").Inc()
	if o.Registry().Counter("shard.1.engine.commits").Value() != 1 {
		t.Fatalf("shard view registered %v, want shard.1.engine.commits", o.Registry().Snapshot().Counters)
	}
	o.Tracer().Emit(1, EvPowerFail, o.Tracer().NewSpan(), 0, 0, 0)
	sh.Tracer().Emit(2, EvTxBegin, sh.Tracer().NewSpan(), 0, 0, 0)
	sh.Tracer().Label("standby0")
	events := o.Tracer().Events()
	if len(events) != 2 || events[0].Dom != 0 || events[1].Dom != 2 || events[1].Span != 2 {
		t.Fatalf("events %+v: want domains 0 and 2 in one ring, spans 1 and 2", events)
	}
	if o.Tracer().Labels()["standby0"] != 1 {
		t.Fatal("a shard's label is not in the machine's table")
	}
	var buf bytes.Buffer
	if err := o.Tracer().Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"dom":`)); n != 1 {
		t.Fatalf("%d events carry a dom key, want only the shard's: %s", n, buf.Bytes())
	}
	var d TraceDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	back, err := d.DecodedEvents()
	if err != nil || len(back) != 2 || back[0] != events[0] || back[1] != events[1] {
		t.Fatalf("round trip %+v (%v), want %+v", back, err, events)
	}
}

func TestTracerSpansAreUniqueAndNonZero(t *testing.T) {
	tr := NewTracer(8)
	a, b := tr.NewSpan(), tr.NewSpan()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("spans a=%d b=%d", a, b)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return the same gauge")
	}
	snap := r.Snapshot()
	_, a := snap.Counters["a"]
	_, g := snap.Gauges["g"]
	_, h := snap.Histograms["h"]
	if !a || !g || !h || len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 3 {
		t.Fatalf("snapshot = %+v, want counter a, gauge g and histogram h", snap)
	}
}

func TestSnapshotRoundTripsThroughJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.commits").Add(3)
	r.Gauge("buf.occupancy").Add(42)
	h := r.Histogram("engine.commit.ack_latency")
	h.Observe(50 * time.Microsecond)
	h.Observe(70 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["engine.commits"] != 3 {
		t.Fatalf("counters = %v", decoded.Counters)
	}
	if decoded.Gauges["buf.occupancy"].Value != 42 {
		t.Fatalf("gauges = %v", decoded.Gauges)
	}
	hs := decoded.Histograms["engine.commit.ack_latency"]
	if hs.Count != 2 || hs.MaxNs < hs.P50Ns {
		t.Fatalf("histogram snap = %+v", hs)
	}
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTracer(8)
	span := tr.NewSpan()
	tr.Emit(time.Millisecond, EvHvAck, span, 0, 100, 4096)
	tr.Emit(2*time.Millisecond, EvDurable, 0, span, 100, 4096)
	var buf bytes.Buffer
	if err := tr.Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Emitted int `json:"emitted"`
		Dropped int `json:"dropped"`
		Events  []struct {
			AtNs int64  `json:"at_ns"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Emitted != 2 || out.Dropped != 0 || len(out.Events) != 2 {
		t.Fatalf("trace json = %+v", out)
	}
	if out.Events[0].Kind != "hv_ack" || out.Events[1].Kind != "durable" {
		t.Fatalf("kinds = %v %v", out.Events[0].Kind, out.Events[1].Kind)
	}
}

// synthetic exposure lifecycle: two acks, one drained, then a dump that
// absorbs the second.
func TestAuditExposureLifecycle(t *testing.T) {
	events := []Event{
		{At: 10, Kind: EvHvAck, Span: 1, Arg1: 0, Arg2: 4096},
		{At: 20, Kind: EvHvAck, Span: 2, Arg1: 8, Arg2: 8192},
		{At: 25, Kind: EvDrainStart, Span: 3, Arg1: 1, Arg2: 4096},
		{At: 30, Kind: EvDurable, Parent: 1, Arg1: 0, Arg2: 4096},
		{At: 40, Kind: EvDumpStart, Span: 4, Arg1: 1, Arg2: 8192},
		{At: 50, Kind: EvDumpDone, Parent: 4, Arg2: 8192},
	}
	rep := AuditExposure(events, 16384, false)
	if rep.Violated() {
		t.Fatalf("peak %d vs bound %d should pass", rep.PeakBytes, rep.Bound)
	}
	if rep.PeakBytes != 12288 || rep.PeakAt != 20 {
		t.Fatalf("peak = %d at %v", rep.PeakBytes, rep.PeakAt)
	}
	if rep.AckedBytes != 12288 || rep.DurableBytes != 4096 || rep.DumpedBytes != 8192 {
		t.Fatalf("flows: acked %d durable %d dumped %d", rep.AckedBytes, rep.DurableBytes, rep.DumpedBytes)
	}
	if rep.OutstandingBytes != 0 {
		t.Fatalf("outstanding = %d", rep.OutstandingBytes)
	}
	if rep.Writes != 2 || rep.DrainRounds != 1 || rep.Dumps != 1 {
		t.Fatalf("counts: writes %d drains %d dumps %d", rep.Writes, rep.DrainRounds, rep.Dumps)
	}
	if got := rep.AckToDurable.Count(); got != 2 {
		t.Fatalf("ack→durable observations = %d", got)
	}
	// Exposure must end at zero after the dump.
	pts := rep.Points
	if len(pts) == 0 || pts[len(pts)-1].Bytes != 0 {
		t.Fatalf("points = %v", pts)
	}
}

func TestAuditExposureViolationAndOutstanding(t *testing.T) {
	events := []Event{
		{At: 1, Kind: EvHvAck, Span: 1, Arg2: 1000},
		{At: 2, Kind: EvHvAck, Span: 2, Arg2: 1000},
	}
	rep := AuditExposure(events, 1500, true)
	if !rep.Violated() {
		t.Fatalf("peak %d vs bound %d must violate", rep.PeakBytes, rep.Bound)
	}
	if rep.OutstandingBytes != 2000 {
		t.Fatalf("outstanding = %d", rep.OutstandingBytes)
	}
	if !rep.TruncatedTrace {
		t.Fatal("truncation flag must carry through")
	}
	if rep.Verdict() == "" {
		t.Fatal("verdict must render")
	}
}

// A power restore ends exposure in the audit as it does in the monitor: what
// no dump saved is lost, not still at risk, and must not stack under the
// writes the rebooted machine acks next.
func TestExposureEndsAtPowerRestore(t *testing.T) {
	events := []Event{
		{At: 1, Kind: EvHvAck, Span: 1, Arg2: 1000},
		{At: 2, Kind: EvPowerFail},
		{At: 3, Kind: EvPowerRestore}, // no dump_done: the dump failed or was disabled
		{At: 4, Kind: EvHvAck, Span: 2, Arg2: 800},
	}
	rep := AuditExposure(events, 1500, false)
	if rep.Violated() || rep.PeakBytes != 1000 {
		t.Fatalf("restore did not end exposure: %s", rep.Verdict())
	}
	if rep.OutstandingBytes != 1800 || rep.DumpedBytes != 0 || rep.AckToDurable.Count() != 0 {
		t.Fatalf("lost and in-flight bytes misfiled: %s", rep.Verdict())
	}
	if mr := RunMonitor(events, MonitorConfig{Bound: 1500}); mr.Total != 0 {
		t.Fatalf("monitor disagrees with the audit: %+v", mr)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("drained")
	g := r.Gauge("occupancy")
	h := r.Histogram("ack")
	c.Add(10)
	g.Set(100) // peak 100
	h.Observe(10 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	prev := r.Snapshot()

	c.Add(5)
	g.Set(40) // level drops; peak stays 100
	h.Observe(50 * time.Microsecond)
	h.Observe(70 * time.Microsecond)
	r.Counter("late") // registered mid-interval
	r.Counter("late").Add(2)
	d := r.Snapshot().Diff(prev)

	if d.Counters["drained"] != 5 {
		t.Fatalf("counter delta = %d, want 5", d.Counters["drained"])
	}
	if d.Counters["late"] != 2 {
		t.Fatalf("mid-interval counter delta = %d, want 2", d.Counters["late"])
	}
	if got := d.Gauges["occupancy"]; got.Value != -60 || got.Peak != 100 {
		t.Fatalf("gauge delta = %+v, want {-60 100}", got)
	}
	dh := d.Histograms["ack"]
	if dh.Count != 2 {
		t.Fatalf("histogram delta count = %d, want 2", dh.Count)
	}
	if want := int64(60 * time.Microsecond); dh.MeanNs != want {
		t.Fatalf("interval mean = %d, want %d (mean of 50µs and 70µs)", dh.MeanNs, want)
	}
	if dh.MinNs != 0 || dh.P99Ns != 0 || dh.MaxNs != 0 {
		t.Fatal("order statistics must be zeroed in a diff — they have no subtractive form")
	}
}
