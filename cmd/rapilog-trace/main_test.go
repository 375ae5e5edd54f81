package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// tracedRun drives commits through a traced deployment and returns it once
// the drain and the standbys have settled.
func tracedRun(t *testing.T, cfg rapilog.Config, commits int) *rapilog.Deployment {
	t.Helper()
	cfg.NoDaemons, cfg.Trace, cfg.TraceCapacity = true, true, 1<<20
	dep, err := rapilog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < commits; i++ {
			tx := e.Begin(p)
			_ = tx.Put(fmt.Sprintf("k%d", i), make([]byte, 256))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
		p.Sleep(500 * time.Millisecond)
	})
	if err := dep.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := dep.Monitor.Total(); n != 0 {
		t.Fatalf("the run itself violated its contract: %+v", dep.Monitor.Report())
	}
	return dep
}

// artifact writes what write produces to a file in the test's temp dir.
func artifact(t *testing.T, name string, write func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// check runs rapilog-trace -check on path and returns its verdict and report.
func check(path string) (bool, string) {
	var out bytes.Buffer
	ok := analyzeFile(&out, path, "", true, 0, true)
	return ok, out.String()
}

// A correct AckLocal replicated run still traces the shipper's first-copy
// (k=1) quorum marks. Read as evidence of a quorum policy, they turned every
// local ack into an ack without evidence; the contract says acks were local.
func TestCheckAckLocalReplicatedRun(t *testing.T) {
	policy, _ := rapilog.ParseAckPolicy("local", 0)
	dep := tracedRun(t, rapilog.Config{Seed: 1, Replicas: 2, AckPolicy: policy}, 100)
	dump := dep.Obs.Tracer().Dump()
	marks := 0
	for _, e := range dump.Events {
		if e.Kind == "quorum_met" {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("test premise broken: a local-ack replicated run traced no quorum marks")
	}
	ok, out := check(artifact(t, "trace.json", dump.WriteJSON))
	if !ok || !strings.Contains(out, "check:          ok") || !strings.Contains(out, "local acks") {
		t.Fatalf("a correct AckLocal run failed -check:\n%s", out)
	}
}

// A quorum=2 run whose marks claim only one standby's copy is an ack without
// evidence, whatever the marks say about themselves.
func TestCheckQuorumContractRejectsWeakerMarks(t *testing.T) {
	dep := tracedRun(t, rapilog.Config{Seed: 2, Replicas: 2, AckPolicy: rapilog.AckQuorum(2)}, 100)
	dump := dep.Obs.Tracer().Dump()
	if ok, out := check(artifact(t, "trace.json", dump.WriteJSON)); !ok {
		t.Fatalf("the untouched quorum=2 trace failed -check:\n%s", out)
	}
	for i := range dump.Events {
		if dump.Events[i].Kind == "quorum_met" {
			dump.Events[i].Arg2 = 1
		}
	}
	ok, out := check(artifact(t, "weak.json", dump.WriteJSON))
	if ok || !strings.Contains(out, "ack_without_evidence") {
		t.Fatalf("k=1 marks passed a quorum=2 contract:\n%s", out)
	}
}

// A rewrite of a still-buffered block is absorbed in place, and it ships like
// any write: a quorum ack must wait for the absorbed record's quorum_met too.
// Moving each of those marks past the next tx_ack must fail -check.
func TestCheckQuorumCoversAbsorbedWrites(t *testing.T) {
	dep := tracedRun(t, rapilog.Config{Seed: 5, Replicas: 2, AckPolicy: rapilog.AckQuorum(1)}, 100)
	dump := dep.Obs.Tracer().Dump()
	if ok, out := check(artifact(t, "trace.json", dump.WriteJSON)); !ok {
		t.Fatalf("the untouched quorum trace failed -check:\n%s", out)
	}
	absorbed := make(map[uint64]bool) // absorb spans, then their ship spans
	var late []obs.WireEvent
	kept := dump.Events[:0:0]
	for _, e := range dump.Events {
		switch {
		case e.Kind == "hv_absorb":
			absorbed[e.Span] = true
		case e.Kind == "ship" && absorbed[e.Parent]:
			absorbed[e.Span] = true
		case e.Kind == "quorum_met" && absorbed[e.Parent]:
			late = append(late, e)
			continue
		case e.Kind == "tx_ack":
			kept = append(kept, e)
			for _, q := range late {
				q.AtNs = e.AtNs
				kept = append(kept, q)
			}
			late = late[:0]
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) != len(dump.Events) {
		t.Fatalf("test premise broken: %d absorbed records' quorum marks never followed by an ack", len(late))
	}
	if len(absorbed) == 0 {
		t.Fatal("test premise broken: no write was absorbed")
	}
	dump.Events = kept
	ok, out := check(artifact(t, "late.json", dump.WriteJSON))
	if ok || !strings.Contains(out, "ack_without_evidence") {
		t.Fatalf("acks ahead of their absorbed records' quorum passed -check:\n%s", out)
	}
}

// The exposure bound is the paper's own invariant; -check re-verifies it
// from the contract's bound.
func TestCheckExposureOverBound(t *testing.T) {
	tr := obs.NewTracer(16)
	obs.NewMonitor(obs.MonitorConfig{Bound: 1000, Trace: tr}) // stamps the contract, observes nothing
	tr.Emit(time.Millisecond, obs.EvHvAck, tr.NewSpan(), 0, 0, 800)
	tr.Emit(2*time.Millisecond, obs.EvHvAck, tr.NewSpan(), 0, 8, 800)
	ok, out := check(artifact(t, "trace.json", tr.Dump().WriteJSON))
	if ok || !strings.Contains(out, "exposure_bound") {
		t.Fatalf("1600 B buffered against a 1000 B bound passed -check:\n%s", out)
	}
}

// Every machine arms its monitor, so an artifact without a contract is
// outside input: the analysis runs, -check refuses with the reason and never
// says "ok".
func TestCheckRefusesArtifactWithoutContract(t *testing.T) {
	tr := obs.NewTracer(16)
	tr.Emit(time.Millisecond, obs.EvHvAck, tr.NewSpan(), 0, 0, 800)
	path := artifact(t, "trace.json", tr.Dump().WriteJSON)
	if !analyzeFile(io.Discard, path, "", false, 0, true) {
		t.Fatal("a contract-less artifact failed plain analysis")
	}
	ok, out := check(path)
	if ok || !strings.Contains(out, "carries no contract") || strings.Contains(out, "check:          ok") {
		t.Fatalf("contract-less artifact not refused:\n%s", out)
	}
}

// A window with no acked transaction saw nothing the invariants promise
// about. A failover trial that idled on to its watchdog kept only fabric
// heartbeats, and its trace read "ok — 65536 events, 0 acked txs".
func TestCheckRefusesArtifactThatSawNothing(t *testing.T) {
	tr := obs.NewTracer(16)
	obs.NewMonitor(obs.MonitorConfig{Bound: 1000, Trace: tr})
	for i := 1; i <= 4; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, obs.EvNetSend, 0, 0, 24, 5)
		tr.Emit(time.Duration(i)*time.Millisecond, obs.EvNetDeliver, 0, 0, 24, 5)
	}
	ok, out := check(artifact(t, "trace.json", tr.Dump().WriteJSON))
	if ok || !strings.Contains(out, "no acked transaction") || strings.Contains(out, "check:          ok") {
		t.Fatalf("a heartbeat-only artifact was not refused:\n%s", out)
	}
}

// A flight record is a trace dump plus the freeze: one reader loads both and
// -check verifies either against the contract.
func TestOneReaderLoadsFlightRecordsAndTraceDumps(t *testing.T) {
	dep := tracedRun(t, rapilog.Config{Seed: 4, Mode: rapilog.ModeRapiLog, Flight: true}, 50)
	dep.Flight.Freeze(dep.S.Now().Duration(), "run-end")
	rec := dep.Flight.Record()
	if rec.Contract == nil {
		t.Fatal("flight record carries no contract")
	}
	ok, out := check(artifact(t, "flight.json", rec.WriteJSON))
	if !ok || !strings.Contains(out, `frozen "run-end"`) {
		t.Fatalf("flight record:\n%s", out)
	}
	ok, out = check(artifact(t, "trace.json", dep.Obs.Tracer().Dump().WriteJSON))
	if !ok || strings.Contains(out, "flight record:") {
		t.Fatalf("trace dump:\n%s", out)
	}
}

// A metrics snapshot is neither a dump nor a record: refused, not analysed
// as an empty trace.
func TestMetricsSnapshotIsRejected(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.commits").Add(3)
	path := artifact(t, "metrics.json", reg.Snapshot().WriteJSON)
	if analyzeFile(io.Discard, path, "", false, 0, true) {
		t.Fatal("a metrics snapshot was analysed as a trace")
	}
}

// A flight record frozen for a violation carries the live verdict, and its
// window cannot replay it: a local-ack stress campaign froze one for
// retention_bound at 800.753 ms with 1 violation in its monitor report, and
// -check said "ok — 4096 events, 261 acked txs", because 4 096 events do not
// span a 520 ms grace. Either signal alone fails the check, naming the
// invariant.
func TestCheckFailsRecordFrozenForViolation(t *testing.T) {
	dep := tracedRun(t, rapilog.Config{Seed: 4, Mode: rapilog.ModeRapiLog, Flight: true}, 50)
	dep.Flight.Freeze(dep.S.Now().Duration(), "run-end")
	clean := *dep.Flight.Record()
	if ok, out := check(artifact(t, "clean.json", clean.WriteJSON)); !ok {
		t.Fatalf("test premise: the clean record failed -check:\n%s", out)
	}

	frozen := clean
	frozen.Reason = "invariant:retention_bound"
	ok, out := check(artifact(t, "frozen.json", frozen.WriteJSON))
	if ok || !strings.Contains(out, "frozen for a retention_bound violation") {
		t.Fatalf("a record frozen for a violation passed -check:\n%s", out)
	}

	flagged := clean
	v := obs.Violation{Invariant: "retention_bound", AtNs: clean.AtNs, Detail: "retained 205684736 bytes above limit 67108864 for 520 ms"}
	flagged.Monitor = &obs.MonitorReport{EventsSeen: 1, TxAcked: 1, Total: 1, ByKind: map[string]int{v.Invariant: 1}, Samples: []obs.Violation{v}}
	ok, out = check(artifact(t, "flagged.json", flagged.WriteJSON))
	if ok || !strings.Contains(out, "live monitor found 1 invariant violations") || !strings.Contains(out, "retention_bound ×1") {
		t.Fatalf("a record whose live monitor found a violation passed -check:\n%s", out)
	}
}
