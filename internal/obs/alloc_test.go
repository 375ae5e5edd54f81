//go:build !race

package obs

import (
	"testing"
	"time"
)

// TestShardEmitAllocs pins an Emit through a shard's tracer view, with the
// monitor observing, at zero allocations: the view stamps a byte and the
// monitor routes the event to its domain's state — retention included —
// without allocating.
func TestShardEmitAllocs(t *testing.T) {
	o := New(Config{TraceEnabled: true, TraceCapacity: 1 << 10})
	tr := o.Tracer()
	tr.SetObserver(NewMonitor(MonitorConfig{Bound: 1 << 20, RetainLimit: 1 << 20, Trace: tr}).Consume)
	view := o.Shard(3).Tracer()
	var at time.Duration
	perEvent := testing.AllocsPerRun(1000, func() {
		at++
		view.Emit(at, EvHvThrottle, 0, 0, 7, 512)
	})
	if tr.Events()[0].Dom != 4 {
		t.Fatalf("shard 3's event names domain %d, want 4", tr.Events()[0].Dom)
	}
	if perEvent != 0 {
		t.Fatalf("Emit through a shard view allocates %.2f times per event, want 0", perEvent)
	}
}

// TestAnalyzeAllocsPerCommit pins the analyzer's allocations per traced
// commit: two are needed (the transaction, the force). A covering-force
// lookup that allocates per acked transaction — one once rebuilt a history
// of every force, O(commits) long — made rapilog-trace 4× slower per
// doubling of the trace.
func TestAnalyzeAllocsPerCommit(t *testing.T) {
	const commits = 2000
	tr := NewTracer(8 * commits)
	for i := 0; i < commits; i++ {
		at := time.Duration(i) * time.Millisecond
		tx, force, lsn := tr.NewSpan(), tr.NewSpan(), int64(100*(i+1))
		tr.Emit(at, EvTxBegin, tx, 0, 0, 0)
		tr.Emit(at+1, EvWalAppend, 0, tx, lsn, 64)
		tr.Emit(at+2, EvLogSubmit, force, 0, lsn, 0)
		tr.Emit(at+3, EvLogComplete, 0, force, lsn, 0)
		tr.Emit(at+4, EvTxAck, 0, tx, 0, 0)
	}
	dump := tr.Dump()
	var a *Analysis
	perCommit := testing.AllocsPerRun(5, func() {
		var err error
		if a, err = Analyze(dump, 0); err != nil {
			t.Fatal(err)
		}
	}) / commits
	if a.Chains.Commits != commits || a.Chains.Complete != commits {
		t.Fatalf("synthetic trace did not analyze as %d complete chains: %+v", commits, a.Chains)
	}
	t.Logf("%.2f allocs per commit", perCommit)
	if perCommit > 2.5 {
		t.Fatalf("Analyze allocates %.2f times per commit, want ≤ 2.5", perCommit)
	}
}
