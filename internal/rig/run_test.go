package rig

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunOneDomainIsRunClients holds a one-domain Run to the hand-rolled
// measured loop it replaces — boot, load and one RunClients pool from a
// driver in the guest — on the same seed: the paper's machine goes through
// the same per-domain runner path as a fleet, and it moves no schedule.
func TestRunOneDomainIsRunClients(t *testing.T) {
	cfg := Config{Seed: 5, CheckpointEvery: 30 * time.Second}
	rc := workload.RunnerConfig{Clients: 4, Duration: time.Second, Warmup: 100 * time.Millisecond}
	mkWorkload := func() workload.Workload { return &workload.TPCB{Branches: 2, Tellers: 4, Accounts: 200} }

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want workload.RunResult
	done := ref.S.NewEvent("ref.done")
	ref.S.Spawn(ref.Plat.Domain(), "ref", func(p *sim.Proc) {
		defer done.Fire()
		e, err := ref.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		w := mkWorkload()
		if err := w.Load(p, e); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		want = workload.RunClients(p, ref.Plat.Domain(), e, w, rc)
	})
	if err := ref.S.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
	if want.Committed == 0 {
		t.Fatal("the reference loop committed nothing")
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Run(mkWorkload(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Domains) != 1 || len(got.Engines) != 1 {
		t.Fatalf("one-domain run has %d sections and %d engines", len(got.Domains), len(got.Engines))
	}
	summary := func(res workload.RunResult) string {
		h := res.TxnLatency
		return fmt.Sprintf("committed=%d aborted=%d duration=%v latency count=%d p50=%v p99=%v max=%v",
			res.Committed, res.Aborted, res.Duration, h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
	}
	if g, w := summary(got.Domains[0]), summary(want); g != w {
		t.Errorf("Run's domain 0:\n  %s\nthe hand-rolled loop:\n  %s", g, w)
	}
	if g, d := summary(got.Total), summary(got.Domains[0]); g != d {
		t.Errorf("one-domain Total:\n  %s\nits only domain:\n  %s", g, d)
	}
}

// unsplittable is a workload Split knows nothing about; its Name differs from
// its type so that a refusal is seen to name the type.
type unsplittable struct{}

func (unsplittable) Name() string                                          { return "custom" }
func (unsplittable) Load(*sim.Proc, *engine.Engine) error                  { return nil }
func (unsplittable) Do(*sim.Proc, *engine.Engine, *workload.Journal) error { return nil }

// TestRunSplitsOrRefuses checks how Run shares one workload among the log
// domains of a 2-shard machine: TPC-B and TPC-C are partitioned into
// disjoint, covering, non-empty id sets, Stress gets an instance per domain,
// and a workload it cannot split, or one journal for both domains, is
// refused before anything boots.
func TestRunSplitsOrRefuses(t *testing.T) {
	r, err := New(Config{Seed: 13, NoDaemons: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := len(r.Domains)

	for _, tc := range []struct {
		w   workload.Workload
		ids int
	}{
		{&workload.TPCB{Branches: 8, Tellers: 2, Accounts: 50}, 8},
		{&workload.TPCC{Warehouses: 3}, 3},
	} {
		ws, err := workload.Split(tc.w, n)
		if err != nil {
			t.Fatalf("%s: %v", tc.w.Name(), err)
		}
		seen := map[int]int{}
		for i, w := range ws {
			var owned []int
			switch w := w.(type) {
			case *workload.TPCB:
				owned = w.Owned
			case *workload.TPCC:
				owned = w.Owned
			}
			if len(owned) == 0 {
				t.Fatalf("%s: domain %d owns nothing", tc.w.Name(), i)
			}
			for _, id := range owned {
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: id %d owned by domains %d and %d", tc.w.Name(), id, prev, i)
				}
				seen[id] = i
			}
		}
		if len(seen) != tc.ids {
			t.Fatalf("%s: the split covers %d of %d ids", tc.w.Name(), len(seen), tc.ids)
		}
	}

	base := &workload.Stress{ValueSize: 512}
	ws, err := workload.Split(base, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		st, ok := w.(*workload.Stress)
		if !ok || st == base || st.ValueSize != base.ValueSize || (i > 0 && w == ws[0]) {
			t.Fatalf("stress copy %d is %#v: want a distinct instance per domain with ValueSize %d", i, w, base.ValueSize)
		}
	}

	_, err = r.Run(unsplittable{}, workload.RunnerConfig{Clients: 1, Duration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "unsplittable") {
		t.Fatalf("Run over %d domains of an unsplittable workload: err %v, want one naming the type", n, err)
	}
	if _, err := r.Run(base, workload.RunnerConfig{Clients: 1, Duration: time.Second, Journal: workload.NewJournal()}); err == nil {
		t.Fatal("Run over 2 domains accepted one journal for both")
	}
	if got := r.S.Dispatched(); got != 0 {
		t.Fatalf("the refused runs dispatched %d events: something booted", got)
	}
}
