package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

// ev is shorthand for building synthetic monitor input.
func ev(at time.Duration, k Kind, span, parent SpanID, a1, a2 int64) Event {
	return Event{At: at, Kind: k, Span: span, Parent: parent, Arg1: a1, Arg2: a2}
}

// cleanQuorumStream is a minimal fully-evidenced quorum commit: begin,
// append, buffer insert under a force, ship, replica ack, quorum, flush,
// ack, drain.
func cleanQuorumStream() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		ev(ms(1), EvTxBegin, 1, 0, 0, 0),
		ev(ms(2), EvWalAppend, 0, 1, 100, 64),
		ev(ms(3), EvHvAck, 2, 10, 7, 512), // entry span 2, force span 10
		ev(ms(3), EvShip, 3, 2, 1, 512),   // ship span 3, seq 1
		ev(ms(4), EvReplicaAck, 0, 3, 1, 1),
		ev(ms(4), EvQuorumMet, 0, 3, 1, 1),
		ev(ms(5), EvLogComplete, 0, 10, 100, 0),
		ev(ms(6), EvTxAck, 0, 1, 0, 0),
		ev(ms(9), EvDurable, 0, 2, 7, 512),
	}
}

func TestMonitorCleanQuorumStream(t *testing.T) {
	rep := RunMonitor(cleanQuorumStream(), MonitorConfig{
		Bound: 4096, QuorumK: 1,
	})
	if rep.Total != 0 {
		t.Fatalf("clean stream flagged: %+v", rep)
	}
	if rep.TxAcked != 1 {
		t.Fatalf("TxAcked = %d, want 1", rep.TxAcked)
	}
}

func TestMonitorDetectsExposureOverBound(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	m := NewMonitor(MonitorConfig{Bound: 1000})
	m.Consume(ev(ms(1), EvHvAck, 2, 0, 0, 800))
	if m.Total() != 0 {
		t.Fatalf("under-bound exposure flagged")
	}
	m.Consume(ev(ms(2), EvHvAck, 3, 0, 1, 800)) // 1600 > 1000
	if m.Total() != 1 {
		t.Fatalf("Total = %d after crossing bound, want 1", m.Total())
	}
	// Same episode: no re-fire while still above the bound.
	m.Consume(ev(ms(3), EvHvAck, 4, 0, 2, 100))
	if m.Total() != 1 {
		t.Fatalf("Total = %d, episode re-fired", m.Total())
	}
	// Drain below the bound, then cross again: a new episode fires.
	m.Consume(ev(ms(4), EvDurable, 0, 2, 0, 0))
	m.Consume(ev(ms(5), EvDurable, 0, 3, 1, 0))
	m.Consume(ev(ms(6), EvHvAck, 5, 0, 3, 2000))
	if m.Total() != 2 {
		t.Fatalf("Total = %d after second episode, want 2", m.Total())
	}
	rep := m.Report()
	if rep.ByKind[InvExposure.String()] != 2 {
		t.Fatalf("ByKind = %v", rep.ByKind)
	}
}

func TestMonitorDetectsAckBeforeLocalFlush(t *testing.T) {
	var events []Event
	for _, e := range cleanQuorumStream() {
		if e.Kind == EvLogComplete {
			continue // the commit's covering force never completes
		}
		events = append(events, e)
	}
	rep := RunMonitor(events, MonitorConfig{})
	if rep.ByKind[InvAckEvidence.String()] != 1 {
		t.Fatalf("missing-flush ack not flagged: %+v", rep)
	}
}

func TestMonitorDetectsAckWithoutQuorumEvidence(t *testing.T) {
	var events []Event
	for _, e := range cleanQuorumStream() {
		if e.Kind == EvQuorumMet {
			continue // quorum never met, yet the tx acks
		}
		events = append(events, e)
	}
	// Under the local policy this stream is fine...
	if rep := RunMonitor(events, MonitorConfig{}); rep.Total != 0 {
		t.Fatalf("local policy flagged quorum-free stream: %+v", rep)
	}
	// ...under a quorum policy it is an ack without evidence.
	rep := RunMonitor(events, MonitorConfig{QuorumK: 1})
	if rep.ByKind[InvAckEvidence.String()] != 1 {
		t.Fatalf("quorum-free ack not flagged: %+v", rep)
	}
	// So is the clean stream against a stricter policy than its marks
	// claim: one standby's copy is not a quorum of two.
	rep = RunMonitor(cleanQuorumStream(), MonitorConfig{QuorumK: 2})
	if rep.ByKind[InvAckEvidence.String()] != 1 {
		t.Fatalf("k=1 quorum mark accepted as evidence for K=2: %+v", rep)
	}
}

func TestMonitorDetectsAckRegression(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		ev(ms(1), EvReplicaAck, 0, 3, 5, 1),
		ev(ms(2), EvReplicaAck, 0, 3, 3, 1), // replica 1 regresses
		ev(ms(3), EvReplicaAck, 0, 3, 3, 2), // replica 2 is just behind, fine
	}
	rep := RunMonitor(events, MonitorConfig{})
	if rep.ByKind[InvAckMonotone.String()] != 1 {
		t.Fatalf("ack regression not flagged: %+v", rep)
	}
}

// TestMonitorDetectsRetentionOverGrace: retention is the shipper's ledger as
// its events state it — ships add, a trim says what is still retained, an
// epoch starts from nothing — and it may sit above the limit for the grace
// window, once per episode.
func TestMonitorDetectsRetentionOverGrace(t *testing.T) {
	m := NewMonitor(MonitorConfig{RetainLimit: 100, RetainGrace: 10 * time.Millisecond})
	// Any event re-checks retention; a throttle mark touches nothing else.
	tick := func(at time.Duration) { m.Consume(ev(at, EvHvThrottle, 0, 0, 0, 0)) }

	m.Consume(ev(0, EvEpoch, 0, 0, 1, 2))
	m.Consume(ev(1*time.Millisecond, EvShip, 1, 0, 1, 300))
	m.Consume(ev(1*time.Millisecond, EvShip, 2, 0, 2, 200)) // 500 retained: episode starts
	tick(5 * time.Millisecond)                              // within grace
	if m.Total() != 0 {
		t.Fatalf("retention flagged inside the grace window")
	}
	tick(20 * time.Millisecond)
	if m.Total() != 1 {
		t.Fatalf("Total = %d after grace expiry, want 1", m.Total())
	}
	tick(30 * time.Millisecond) // fire-once per episode
	if m.Total() != 1 {
		t.Fatalf("retention episode re-fired")
	}
	m.Consume(ev(40*time.Millisecond, EvTrim, 0, 0, 1, 50)) // recovered
	m.Consume(ev(41*time.Millisecond, EvShip, 3, 0, 3, 450))
	tick(60 * time.Millisecond) // new episode, new violation
	if m.Total() != 2 {
		t.Fatalf("Total = %d after second episode, want 2", m.Total())
	}
	if v := m.Report().Samples[1]; v.AtNs != int64(60*time.Millisecond) || !strings.Contains(v.Detail, "retained 500 bytes") {
		t.Fatalf("second episode reported as %+v", v)
	}
}

// A deposed leader's shipper trims its own, older stream: that says nothing
// about what the live epoch retains. The monitor is armed after the first
// epoch began, so trims of an epoch it never saw start still count.
func TestMonitorRetentionFollowsTheNewestEpoch(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		ev(ms(1), EvShip, 1, 0, 1, 500),
		ev(ms(2), EvTrim, 0, 0, 1, 0), // epoch 1, begun before the window
		ev(ms(3), EvShip, 2, 0, 2, 500),
		ev(ms(4), EvEpoch, 0, 0, 2, 2), // the promoted leader's stream
		ev(ms(5), EvShip, 3, 0, 1, 500),
		ev(ms(6), EvTrim, 0, 0, 1, 0), // the deposed leader lets go of its own
		ev(ms(30), EvHvThrottle, 0, 0, 0, 0),
	}
	rep := RunMonitor(events, MonitorConfig{RetainLimit: 100, RetainGrace: 10 * time.Millisecond})
	if rep.ByKind[InvRetention.String()] != 1 || rep.Samples[0].AtNs != int64(ms(30)) {
		t.Fatalf("the live epoch's 500 retained bytes were not flagged at 30 ms: %+v", rep)
	}
	events[5].Arg1 = 2 // the live shipper's own trim
	if rep := RunMonitor(events, MonitorConfig{RetainLimit: 100, RetainGrace: 10 * time.Millisecond}); rep.Total != 0 {
		t.Fatalf("a trim of the live epoch did not clear retention: %+v", rep)
	}
}

func TestMonitorEpochResetsSequenceState(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		ev(ms(1), EvReplicaAck, 0, 3, 5, 1),
		ev(ms(2), EvEpoch, 0, 0, 2, 2), // new stream: seq restarts
		ev(ms(3), EvReplicaAck, 0, 4, 1, 1),
	}
	if rep := RunMonitor(events, MonitorConfig{}); rep.Total != 0 {
		t.Fatalf("post-epoch seq restart flagged: %+v", rep)
	}
}

func TestMonitorObserverEmitsViolationMark(t *testing.T) {
	tr := NewTracer(64)
	m := NewMonitor(MonitorConfig{Bound: 100, Trace: tr})
	var got []Violation
	m.OnViolation = func(v Violation) { got = append(got, v) }
	tr.SetObserver(m.Consume)
	tr.Emit(time.Millisecond, EvHvAck, 2, 0, 0, 500)
	if len(got) != 1 || got[0].Invariant != InvExposure.String() {
		t.Fatalf("OnViolation = %+v", got)
	}
	found := false
	for _, e := range tr.Events() {
		if e.Kind == EvViolation && e.Arg1 == int64(InvExposure) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvViolation mark in the trace ring")
	}
}

func TestFlightRecorderFreezeRoundTrip(t *testing.T) {
	const n = flightEventWindow + 20 // past both windows
	o := New(Config{TraceEnabled: true, TraceCapacity: 2 * flightEventWindow})
	o.Registry().Counter("c").Add(7)
	tr := o.Tracer()
	tr.Label("standby0")
	mon := NewMonitor(MonitorConfig{Bound: 100, Trace: tr})
	tr.SetObserver(mon.Consume)

	fr := NewFlightRecorder(o, mon)
	for i := 0; i < n; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, EvHvAck, SpanID(i+1), 0, int64(i), 10)
		fr.Snap(time.Duration(i) * time.Millisecond)
	}
	if fr.Frozen() {
		t.Fatalf("recorder froze with no trigger")
	}
	emitted := len(tr.Events()) // n hv_acks + the monitor's violation mark
	fr.Freeze(25*time.Millisecond, "power-dc-loss")
	fr.Freeze(30*time.Millisecond, "degraded") // first freeze wins
	rec := fr.Record()
	if rec == nil || rec.Reason != "power-dc-loss" {
		t.Fatalf("Record = %+v", rec)
	}
	if len(rec.Events) != flightEventWindow {
		t.Fatalf("kept %d events, want the %d-event window", len(rec.Events), flightEventWindow)
	}
	if rec.Emitted != emitted || rec.Dropped != emitted-flightEventWindow {
		t.Fatalf("Emitted, Dropped = %d, %d, want %d, %d", rec.Emitted, rec.Dropped, emitted, emitted-flightEventWindow)
	}
	if rec.Contract == nil || rec.Contract.Bound != 100 {
		t.Fatalf("contract = %+v, want the armed monitor's bound 100", rec.Contract)
	}
	if len(rec.Snapshots) != flightSnapWindow {
		t.Fatalf("kept %d snapshots, want the %d-snap ring", len(rec.Snapshots), flightSnapWindow)
	}
	if rec.Monitor == nil {
		t.Fatalf("no monitor verdict attached")
	}
	if rec.Monitor.Total == 0 {
		t.Fatalf("exposure violations not in verdict") // n 10 B entries > bound 100
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadFlightRecord(&buf)
	if err != nil {
		t.Fatalf("ReadFlightRecord: %v", err)
	}
	if back.Reason != rec.Reason || back.AtNs != rec.AtNs ||
		len(back.Events) != len(rec.Events) || back.Dropped != rec.Dropped || *back.Contract != *rec.Contract {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back, rec)
	}
	if back.Labels["standby0"] != rec.Labels["standby0"] {
		t.Fatalf("labels lost in roundtrip")
	}
	// Frozen means frozen: later snaps are no-ops.
	fr.Snap(40 * time.Millisecond)
	if len(fr.Record().Snapshots) != flightSnapWindow {
		t.Fatalf("snap after freeze mutated the record")
	}
}

func TestTraceDumpRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	lbl := tr.Label("standby0")
	span := tr.NewSpan()
	tr.Emit(time.Millisecond, EvShip, span, 0, 1, 512)
	tr.Emit(2*time.Millisecond, EvReplicaAck, 0, span, 1, lbl)

	var buf bytes.Buffer
	d := tr.Dump()
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadFlightRecord(&buf)
	if err != nil {
		t.Fatalf("ReadFlightRecord: %v", err)
	}
	if back.Reason != "" || back.Contract != nil {
		t.Fatalf("a bare tracer's dump read back as %+v", back)
	}
	events, err := back.DecodedEvents()
	if err != nil {
		t.Fatalf("DecodedEvents: %v", err)
	}
	want := tr.Events()
	if len(events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(events), len(want))
	}
	for i := range events {
		if events[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, events[i], want[i])
		}
	}
	if back.Labels["standby0"] != lbl {
		t.Fatalf("labels = %v, want standby0 = %d", back.Labels, lbl)
	}
}

func TestSnapshotMarshalIsByteStable(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid.point", "a.b.c"} {
		reg.Counter(n).Add(3)
		reg.Gauge("g." + n).Set(5)
		reg.Histogram("h." + n).Observe(time.Millisecond)
	}
	snap := reg.Snapshot()
	a, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("successive marshals differ:\n%s\n%s", a, b)
	}
	// A semantically identical registry must produce identical bytes, or
	// artifact diffing across runs is noise.
	reg2 := NewRegistry()
	for _, n := range []string{"a.b.c", "mid.point", "alpha", "zeta"} { // other order
		reg2.Counter(n).Add(3)
		reg2.Gauge("g." + n).Set(5)
		reg2.Histogram("h." + n).Observe(time.Millisecond)
	}
	c, err := json.Marshal(reg2.Snapshot())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("registration order changed the bytes:\n%s\n%s", a, c)
	}
}

func TestMonitorDetectsSplitBrainEpoch(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Epochs must be strictly increasing: a second writer starting at an
	// old (or equal) epoch is a split brain.
	events := []Event{
		ev(ms(1), EvEpoch, 0, 0, 1, 2),
		ev(ms(2), EvEpoch, 0, 0, 3, 2), // fenced takeover skipping 2: fine
		ev(ms(3), EvEpoch, 0, 0, 3, 2), // duplicate epoch: split brain
		ev(ms(4), EvEpoch, 0, 0, 2, 2), // regression: split brain
	}
	rep := RunMonitor(events, MonitorConfig{})
	if rep.ByKind[InvSingleWriter.String()] != 2 {
		t.Fatalf("split-brain epochs not flagged: %+v", rep)
	}
	// Monotone epochs are clean.
	clean := []Event{
		ev(ms(1), EvEpoch, 0, 0, 1, 2),
		ev(ms(2), EvEpoch, 0, 0, 2, 2),
	}
	if rep := RunMonitor(clean, MonitorConfig{}); rep.Total != 0 {
		t.Fatalf("monotone epochs flagged: %+v", rep)
	}
}

// TestRoutingCarriesTheVerdict: four cross-domain hazards on a sharded
// machine, judged right only because each event names its log domain. With
// every domain zeroed — one machine-wide state, as before events named one —
// the same streams are misjudged both ways: two violations missed, two
// invented. The machine's own events (domain 0) reach every domain.
func TestRoutingCarriesTheVerdict(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	in := func(dom uint8, e Event) Event { e.Dom = dom; return e }
	for _, tc := range []struct {
		name          string
		events        []Event
		right, zeroed string // the invariant flagged, "" for none
	}{
		{"another domain's force covers nothing", []Event{
			in(1, ev(ms(1), EvTxBegin, 1, 0, 0, 0)),
			in(1, ev(ms(2), EvWalAppend, 0, 1, 100, 64)),
			in(2, ev(ms(3), EvLogComplete, 0, 20, 200, 0)),
			in(1, ev(ms(4), EvTxAck, 0, 1, 0, 0)),
		}, InvAckEvidence.String(), ""},
		{"another domain's dump saves nothing", []Event{
			in(1, ev(ms(1), EvHvAck, 2, 0, 0, 800)),
			in(2, ev(ms(2), EvDumpDone, 0, 9, 0, 0)),
			in(1, ev(ms(3), EvHvAck, 3, 0, 8, 800)),
		}, InvExposure.String(), ""},
		{"two shards' standby0 ack their own streams", []Event{
			in(1, ev(ms(1), EvReplicaAck, 0, 3, 5, 1)),
			in(2, ev(ms(2), EvReplicaAck, 0, 4, 3, 1)),
		}, "", InvAckMonotone.String()},
		{"a second shard starts at epoch 1", []Event{
			in(1, ev(ms(1), EvEpoch, 0, 0, 1, 2)),
			in(2, ev(ms(2), EvEpoch, 0, 0, 1, 2)),
		}, "", InvSingleWriter.String()},
		{"the machine's power restore ends every shard's exposure", []Event{
			in(1, ev(ms(1), EvHvAck, 2, 0, 0, 800)),
			in(0, ev(ms(2), EvPowerRestore, 0, 0, 0, 0)),
			in(1, ev(ms(3), EvHvAck, 3, 0, 8, 800)),
		}, "", ""},
	} {
		zeroed := slices.Clone(tc.events)
		for i := range zeroed {
			zeroed[i].Dom = 0
		}
		for _, run := range []struct {
			events []Event
			want   string
		}{{tc.events, tc.right}, {zeroed, tc.zeroed}} {
			rep := RunMonitor(run.events, MonitorConfig{Bound: 1000})
			if got := rep.ByKind[run.want]; rep.Total != got || (run.want != "") != (got == 1) {
				t.Errorf("%s, domains %v: %+v, want only %q", tc.name, run.events[0].Dom, rep, run.want)
			}
		}
		// The audit and the analyzer route by the same rule.
		if tc.right == InvExposure.String() &&
			(!AuditExposure(tc.events, 1000, false).Violated() || AuditExposure(zeroed, 1000, false).Violated()) {
			t.Errorf("%s: the exposure audit does not route by domain", tc.name)
		}
		if tc.right == InvAckEvidence.String() {
			a, _ := Analyze(TraceDump{Events: wire(tc.events)}, 0)
			z, _ := Analyze(TraceDump{Events: wire(zeroed)}, 0)
			if a.Chains.Incomplete[missingFlush] != 1 || z.Chains.Complete != 1 {
				t.Errorf("%s: the analyzer does not route by domain: %+v vs zeroed %+v", tc.name, a.Chains, z.Chains)
			}
		}
	}
}

func wire(events []Event) []WireEvent {
	out := make([]WireEvent, len(events))
	for i, e := range events {
		out[i] = e.ToWire()
	}
	return out
}

// TestFlushCoverFindsFirstCoveringFlush: a transaction's covering force is the
// first flush at or past its commit LSN, also when flush values dip; with none
// it was acked before a covering flush.
func TestFlushCoverFindsFirstCoveringFlush(t *testing.T) {
	flushes := []int64{10, 30, 20, 5, 40, 40, 35, 60}
	l := newAckLedger(0)
	for lsn := int64(1); lsn <= 61; lsn++ {
		l.apply(ev(0, EvWalAppend, 0, SpanID(lsn), lsn, 0)) // tx span = its lsn
	}
	for i, lsn := range flushes {
		l.apply(ev(0, EvLogComplete, 0, SpanID(100+i), lsn, 0))
	}
	for lsn := int64(1); lsn <= 61; lsn++ {
		var want SpanID
		for i, f := range flushes {
			if f >= lsn {
				want = SpanID(100 + i)
				break
			}
		}
		v := l.judge(ev(0, EvTxAck, 0, SpanID(lsn), 0, 0))
		if v.force != want || (v.missing == "") != (want != 0) {
			t.Errorf("lsn %d: covered by force %d (%q), want force %d", lsn, v.force, v.missing, want)
		}
	}
	if len(l.txs) != 0 {
		t.Errorf("%d acked transactions left in the ledger", len(l.txs))
	}
}

// absorbedQuorumStream is two quorum commits on one log block: the first
// buffers it (hv_ack), the second's force rewrites it in place (hv_absorb).
// The absorbed record's quorum_met is at lateQuorum.
func absorbedQuorumStream(lateQuorum time.Duration) []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		ev(ms(1), EvTxBegin, 1, 0, 0, 0),
		ev(ms(1), EvWalAppend, 0, 1, 100, 64),
		ev(ms(2), EvLogSubmit, 10, 0, 100, 512),
		ev(ms(2), EvHvAck, 2, 10, 7, 512),
		ev(ms(2), EvShip, 3, 2, 1, 512),
		ev(ms(3), EvQuorumMet, 0, 3, 1, 1),
		ev(ms(3), EvLogComplete, 0, 10, 100, 0),
		ev(ms(3), EvTxAck, 0, 1, 0, 0),

		ev(ms(4), EvTxBegin, 4, 0, 0, 0),
		ev(ms(4), EvWalAppend, 0, 4, 200, 64),
		ev(ms(5), EvLogSubmit, 11, 0, 200, 512),
		ev(ms(5), EvHvAbsorb, 5, 11, 7, 512), // the force's only write
		ev(ms(5), EvShip, 6, 5, 2, 512),
		ev(lateQuorum, EvQuorumMet, 0, 6, 2, 1),
		ev(ms(6), EvLogComplete, 0, 11, 200, 0),
		ev(ms(6), EvTxAck, 0, 4, 0, 0),
	}
}

// An absorbed rewrite is a write of its force like any other: a quorum ack
// that does not wait for its record's quorum_met is an ack without evidence,
// online and offline, under the same reason.
func TestAbsorbedWriteNeedsItsQuorum(t *testing.T) {
	run := func(events []Event) (MonitorReport, *Analysis) {
		t.Helper()
		slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		tr := NewTracer(64)
		m := NewMonitor(MonitorConfig{QuorumK: 1, Trace: tr})
		tr.SetObserver(m.Consume)
		for _, e := range events {
			tr.Emit(e.At, e.Kind, e.Span, e.Parent, e.Arg1, e.Arg2)
		}
		a, err := Analyze(tr.Dump(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Report(), a
	}

	rep, a := run(absorbedQuorumStream(5500 * time.Microsecond))
	if rep.Total != 0 || a.Chains.Commits != 2 || a.Chains.Complete != 2 {
		t.Fatalf("quorum met before the force completed: monitor %+v, chains %+v", rep, a.Chains)
	}
	// 1 ms waited by the buffered write, 0.5 ms by the absorbed one.
	if got := a.Critical.QuorumBarrier.Sum(); got != 1500*time.Microsecond {
		t.Fatalf("critical path's quorum barrier totals %v, want 1.5ms", got)
	}

	rep, a = run(absorbedQuorumStream(7 * time.Millisecond))
	if rep.ByKind[InvAckEvidence.String()] != 1 || rep.Total != 1 {
		t.Fatalf("ack before the absorbed record's quorum not flagged: %+v", rep)
	}
	if a.Chains.Complete != 1 || a.Chains.Incomplete[missingQuorum] != 1 {
		t.Fatalf("chains %+v, want the second commit incomplete as %q", a.Chains, missingQuorum)
	}
	if d := rep.Samples[0].Detail; !strings.HasPrefix(d, missingQuorum) {
		t.Fatalf("violation %q is not reported under the analyzer's reason %q", d, missingQuorum)
	}
}
