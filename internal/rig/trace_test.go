package rig

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runReplicatedTraced drives commits through a traced replicated rig and
// returns it after the shipper has settled.
func runReplicatedTraced(t *testing.T, cfg Config, commits int) *Rig {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < commits; i++ {
			tx := e.Begin(p)
			_ = tx.Put(key(i), make([]byte, 256))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
		// Let the drain retire the tail and the standbys finish acking.
		p.Sleep(500 * time.Millisecond)
	})
	if err := r.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	return r
}

// The tentpole property: in a quorum deployment every replica ack links
// back (via its parent span) to a ship event, every quorum_met has at least
// k replicas that both applied and acked the record, and ≥99% of acked
// commits have a complete tx_begin→…→quorum_met causal chain. The online
// monitor must agree that nothing was violated.
func TestReplicatedCausalChainProperty(t *testing.T) {
	r := runReplicatedTraced(t, Config{
		Seed: 11, Replicas: 2, AckPolicy: core.AckQuorum(2),
		NoDaemons: true, Trace: true, Flight: true, TraceCapacity: 1 << 20,
	}, 200)

	events := r.Obs.Tracer().Events()
	shipSpans := make(map[obs.SpanID]bool)
	applies := make(map[obs.SpanID]map[int64]bool)
	acks := make(map[obs.SpanID]map[int64]bool)
	var nShip, nAck, nQuorum int
	for _, e := range events {
		switch e.Kind {
		case obs.EvShip:
			nShip++
			shipSpans[e.Span] = true
		case obs.EvReplicaApply:
			if applies[e.Parent] == nil {
				applies[e.Parent] = make(map[int64]bool)
			}
			applies[e.Parent][e.Arg2] = true
		case obs.EvReplicaAck:
			nAck++
			if !shipSpans[e.Parent] {
				t.Fatalf("replica_ack seq %d (replica %d) has no ship ancestor (parent span %d)", e.Arg1, e.Arg2, e.Parent)
			}
			if acks[e.Parent] == nil {
				acks[e.Parent] = make(map[int64]bool)
			}
			acks[e.Parent][e.Arg2] = true
		}
	}
	if nShip == 0 || nAck == 0 {
		t.Fatalf("no replication traffic traced (ships=%d acks=%d)", nShip, nAck)
	}
	for _, e := range events {
		if e.Kind != obs.EvQuorumMet {
			continue
		}
		nQuorum++
		if e.Parent == 0 {
			continue // record already truncated when quorum was learned
		}
		covered := 0
		for rep := range acks[e.Parent] {
			if applies[e.Parent][rep] {
				covered++
			}
		}
		if covered < int(e.Arg2) {
			t.Fatalf("quorum_met seq %d claims k=%d but only %d replicas applied+acked", e.Arg1, e.Arg2, covered)
		}
	}
	if nQuorum == 0 {
		t.Fatalf("no quorum_met events under AckQuorum(2)")
	}

	a, err := obs.Analyze(r.Obs.Tracer().Dump(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chains.Commits < 150 {
		t.Fatalf("only %d assessable commits; workload too small for the property", a.Chains.Commits)
	}
	if ratio := a.Chains.Ratio(); ratio < 0.99 {
		t.Fatalf("causal-chain completeness %.3f < 0.99 (incomplete: %v)", ratio, a.Chains.Incomplete)
	}
	// A quorum commit's covering force is mostly the wait for its records'
	// quorum, absorbed rewrites of the log tail included, not local work.
	c := a.Critical
	if barrier, local := c.QuorumBarrier.Quantile(0.5), c.LocalForce.Quantile(0.5); barrier <= local {
		t.Fatalf("critical path puts the quorum wait under local force: quorum barrier p50 %v ≤ local force p50 %v", barrier, local)
	}
	// The Perfetto export is a function of the trace: analysed and written
	// twice, it is the same bytes (it used to follow map iteration order).
	var first, second bytes.Buffer
	if err := a.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	again, err := obs.Analyze(r.Obs.Tracer().Dump(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.WriteChromeTrace(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two Chrome-trace exports of one trace differ (%d and %d bytes)", first.Len(), second.Len())
	}
	if r.Monitor == nil {
		t.Fatalf("traced rig has no monitor")
	}
	if n := r.Monitor.Total(); n != 0 {
		t.Fatalf("monitor found %d violations on a clean run: %+v", n, r.Monitor.Report())
	}
}

// After a settled quorum TPC-B run — most of whose log writes are absorbed
// rewrites of the WAL's tail block — the monitor's ack-evidence ledger holds
// no work: every transaction was acked, every write shipped, every force
// completed. Its state is bounded by the work in flight, not by the run.
func TestAckLedgerHoldsOnlyInFlightWork(t *testing.T) {
	r, err := New(Config{Seed: 1, Replicas: 2, AckPolicy: core.AckQuorum(1), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := r.S.NewEvent("done")
	var committed int64
	r.S.Spawn(r.Plat.Domain(), "driver", func(p *sim.Proc) {
		defer done.Fire()
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		w := &workload.TPCB{}
		if err := w.Load(p, e); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		committed = workload.RunClients(p, r.Plat.Domain(), e, w, workload.RunnerConfig{
			Clients: 8, Duration: 200 * time.Millisecond,
		}).Committed
		p.Sleep(100 * time.Millisecond) // the standbys ack the tail
	})
	if err := r.S.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	st := r.Logger.RapiStats()
	if committed < 100 || st.Absorbed.Value()*2 < st.Writes.Value() {
		t.Fatalf("test premise broken: %d commits, %d of %d log writes absorbed",
			committed, st.Absorbed.Value(), st.Writes.Value())
	}
	if rep := r.Monitor.Report(); rep.Total != 0 || rep.TxAcked < int(committed) {
		t.Fatalf("monitor on a clean run: %+v", rep)
	}
	// The ledgers are unexported, one per log domain; their collections are
	// read by reflection.
	doms := reflect.ValueOf(r.Monitor).Elem().FieldByName("doms").FieldByName("all")
	if doms.Kind() != reflect.Slice || doms.Len() != 1 {
		t.Fatalf("obs.Monitor has no per-domain state doms.all, or not one domain: %v", doms)
	}
	ledger := doms.Index(0).Elem().FieldByName("evidence")
	for _, held := range []string{"txs", "uncovered", "writes"} {
		m := ledger.FieldByName(held)
		if k := m.Kind(); k != reflect.Map && k != reflect.Slice {
			t.Fatalf("obs.Monitor has no ledger collection evidence.%s", held)
		}
		if m.Len() != 0 {
			t.Errorf("settled run left %d entries in the ledger's %s", m.Len(), held)
		}
	}
}

// Replaying a local-ack run's trace under a quorum policy must trip the
// ack-without-evidence invariant: AckLocal acks commits that never waited
// for quorum, which is exactly the broken-policy shape the monitor exists
// to catch.
func TestMonitorFlagsLocalAcksUnderQuorumPolicy(t *testing.T) {
	r := runReplicatedTraced(t, Config{
		Seed: 12, Replicas: 2, AckPolicy: core.AckLocal(),
		NoDaemons: true, Trace: true, TraceCapacity: 1 << 20,
	}, 100)

	if n := r.Monitor.Total(); n != 0 {
		t.Fatalf("local-policy run violated its own policy: %+v", r.Monitor.Report())
	}
	rep := obs.RunMonitor(r.Obs.Tracer().Events(), obs.MonitorConfig{QuorumK: 2})
	if rep.ByKind[obs.InvAckEvidence.String()] == 0 {
		t.Fatalf("no ack_without_evidence findings replaying local acks under a quorum policy: %+v", rep)
	}
}

// A power cut must freeze the flight recorder at DC loss — not at recovery
// — and RecoverAfterPower must hand the frozen record back in its report.
func TestFlightRecorderFreezesAtPowerLoss(t *testing.T) {
	r, err := New(Config{Seed: 13, Mode: RapiLog, NoDaemons: true, Flight: true})
	if err != nil {
		t.Fatal(err)
	}
	done := r.S.NewEvent("done")
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			tx := e.Begin(p)
			_ = tx.Put(key(i), make([]byte, 256))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	})
	r.S.Spawn(nil, "operator", func(p *sim.Proc) {
		defer done.Fire()
		p.Sleep(300 * time.Millisecond)
		r.CutPower()
		p.Sleep(2 * time.Second)
		rep, err := r.RecoverAfterPower(p)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if rep.Flight == nil {
			t.Errorf("RecoveryReport.Flight is nil with Config.Flight set")
			return
		}
		if rep.Flight.Reason != "power-dc-loss" {
			t.Errorf("flight froze for %q, want power-dc-loss", rep.Flight.Reason)
		}
		if len(rep.Flight.Events) == 0 {
			t.Errorf("frozen flight record holds no events")
		}
		if rep.Flight.Monitor == nil || rep.Flight.Monitor.Total != 0 {
			t.Errorf("monitor verdict missing or dirty: %+v", rep.Flight.Monitor)
		}
	})
	if err := r.S.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	if !r.Flight.Frozen() {
		t.Fatal("recorder not frozen after power cut")
	}
}

// Config.Flight alone (without Config.Trace) must still enable the tracer:
// the recorder is useless without events.
func TestFlightImpliesTracing(t *testing.T) {
	r, err := New(Config{Seed: 14, Mode: RapiLog, NoDaemons: true, Flight: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Obs.Tracer().Enabled() {
		t.Fatal("Flight did not enable the tracer")
	}
	if r.Flight == nil || r.Monitor == nil {
		t.Fatal("Flight rig missing recorder or monitor")
	}
}
