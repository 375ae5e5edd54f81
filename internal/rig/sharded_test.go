package rig

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// bootAll opens every domain's engine, in domain order.
func bootAll(p *sim.Proc, r *Rig) ([]*engine.Engine, error) {
	engines := make([]*engine.Engine, len(r.Domains))
	for i, d := range r.Domains {
		e, err := d.Boot(p)
		if err != nil {
			return nil, fmt.Errorf("shard %d boot: %w", i, err)
		}
		engines[i] = e
	}
	return engines, nil
}

// TestShardedBootCommitAndMetrics is the scale-out smoke: every shard
// boots, commits independently, and reports its instruments under its own
// "shard.<i>.*" namespace with a working fleet roll-up.
func TestShardedBootCommitAndMetrics(t *testing.T) {
	const n = 2
	sh, err := New(Config{Seed: 11, NoDaemons: true, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Cfg.Mode != RapiLog || len(sh.Domains) != n || sh.LogDomain != sh.Domains[0] || sh.Router.Shards() != n {
		t.Fatalf("mode=%q domains=%d router=%d", sh.Cfg.Mode, len(sh.Domains), sh.Router.Shards())
	}
	for i, d := range sh.Domains {
		if d.Logger == nil {
			t.Fatalf("shard %d has no logger", i)
		}
		if d.Logger.MaxBuffer() > d.SafeBound() {
			t.Fatalf("shard %d buffer %d exceeds its N-aware bound %d", i, d.Logger.MaxBuffer(), d.SafeBound())
		}
	}
	journals := [n]*workload.Journal{workload.NewJournal(), workload.NewJournal()}
	sh.S.Spawn(nil, "drive", func(p *sim.Proc) {
		engines, err := bootAll(p, sh)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i, e := range engines {
			w := &workload.Stress{}
			for k := 0; k < 10; k++ {
				if err := w.Do(p, e, journals[i]); err != nil {
					t.Errorf("shard %d commit: %v", i, err)
					return
				}
			}
		}
	})
	if err := sh.S.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, j := range journals {
		if j.Len() != 10 {
			t.Fatalf("shard %d acked %d/10", i, j.Len())
		}
	}
	reg := sh.Obs.Registry()
	for i := 0; i < n; i++ {
		if got := reg.Counter(obs.ShardPrefix(i) + ".engine.commits").Value(); got < 10 {
			t.Fatalf("shard %d engine.commits = %d, want >= 10", i, got)
		}
	}
	if got := shard.RollupCounter(reg, n, "engine.commits"); got < 20 {
		t.Fatalf("fleet commits roll-up = %d, want >= 20", got)
	}
	// One machine, one hypervisor: every shard's guest exits into the root
	// bundle's counter, and no shard has a hypervisor of its own.
	if reg.Counter("hv.exits").Value() == 0 {
		t.Fatal("the machine's hypervisor counted no VM exits")
	}
	for _, name := range reg.Names() {
		if strings.HasSuffix(name, ".hv.exits") {
			t.Fatalf("per-shard hypervisor instrument %q, want the shared one only", name)
		}
	}
}

// TestShardedPowerCutZeroAckedLoss is the sharded plug-pull property: with
// every shard committing at the moment of a machine-wide mains loss, no
// acknowledged commit may be lost, and each shard's emergency dump must fit
// inside that shard's share of the hold-up budget (its N-aware SafeBound).
// The replicated machine is verified like any other: its monitor judges each
// shard on its own events and finds nothing, its flight recorder freezes at
// DC loss, and a violation says which shard it happened in.
func TestShardedPowerCutZeroAckedLoss(t *testing.T) {
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sh, err := New(Config{Seed: 70 + int64(n), NoDaemons: true, Shards: n,
				Replicas: 2, AckPolicy: core.AckQuorum(1), Flight: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			if sh.Monitor == nil || sh.Flight == nil {
				t.Fatal("a sharded machine armed no monitor or flight recorder")
			}
			journals := make([]*workload.Journal, n)
			for i := range journals {
				journals[i] = workload.NewJournal()
			}
			sh.S.Spawn(nil, "drive", func(p *sim.Proc) {
				engines, err := bootAll(p, sh)
				if err != nil {
					t.Errorf("boot: %v", err)
					return
				}
				for i, e := range engines {
					i, e := i, e
					// Writers live in their shard's guest domain: they die
					// with the power, mid-transaction or not.
					sh.S.Spawn(sh.Domains[i].Plat.Domain(), fmt.Sprintf("shard%d.writer", i), func(wp *sim.Proc) {
						w := &workload.Stress{}
						for {
							if err := w.Do(wp, e, journals[i]); err != nil {
								return
							}
						}
					})
				}
			})
			var verified int
			sh.S.Spawn(nil, "op", func(p *sim.Proc) {
				p.Sleep(2 * time.Second)
				sh.CutPower()
				p.Sleep(time.Second) // well past any hold-up window
				rep, err := sh.RecoverAfterPower(p)
				if err != nil {
					t.Errorf("sharded recovery: %v", err)
					return
				}
				if len(rep.Shards) != n {
					t.Errorf("merged report has %d sections, want %d", len(rep.Shards), n)
				}
				if f := rep.Flight; f == nil || f.Reason != "power-dc-loss" {
					t.Errorf("flight record not frozen at power-dc-loss")
				} else if f.Monitor == nil || f.Monitor.Total != 0 {
					t.Errorf("flight record's monitor verdict: %+v", f.Monitor)
				}
				for i, sr := range rep.Shards {
					if bound := sh.Domains[i].SafeBound(); sr.Bytes > bound {
						t.Errorf("shard %d dumped %d bytes, exceeds its hold-up share %d", i, sr.Bytes, bound)
					}
				}
				engines, err := bootAll(p, sh)
				if err != nil {
					t.Errorf("reboot: %v", err)
					return
				}
				for i, e := range engines {
					res, err := journals[i].Verify(p, e)
					if err != nil {
						t.Errorf("shard %d verify: %v", i, err)
						return
					}
					if !res.Ok() {
						t.Errorf("shard %d lost acked commits: %v", i, res)
						return
					}
					verified++
				}
			})
			if err := sh.S.RunFor(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			for i, j := range journals {
				if j.Len() == 0 {
					t.Fatalf("shard %d acked nothing before the cut", i)
				}
			}
			if verified != n {
				t.Fatalf("verified %d/%d shards", verified, n)
			}
			if rep := sh.Monitor.Report(); rep.Total != 0 || rep.TxAcked == 0 {
				t.Fatalf("monitor on a clean sharded run: %+v", rep)
			}
			// Against a quorum of two, every ack lacks evidence, and each
			// violation names the shard that acked.
			rep := obs.RunMonitor(sh.Obs.Tracer().Events(), obs.MonitorConfig{QuorumK: 2})
			seen := map[string]bool{}
			for _, v := range rep.Samples {
				shard, _, ok := strings.Cut(v.Detail, ": ")
				if !ok || !strings.HasPrefix(shard, "shard ") {
					t.Fatalf("violation %q does not name its shard", v.Detail)
				}
				seen[shard] = true
			}
			if rep.Total == 0 || len(seen) != n {
				t.Fatalf("stricter replay: %d violations naming %v, want all %d shards", rep.Total, seen, n)
			}
		})
	}
}

// TestShardedPartitionedWorkloadRouting drives hash-partitioned TPC-B
// across shards and checks the partition is total and disjoint.
func TestShardedPartitionedWorkloadRouting(t *testing.T) {
	const n = 2
	sh, err := New(Config{Seed: 13, NoDaemons: true, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	base := workload.TPCB{Branches: 8, Tellers: 2, Accounts: 50}
	parts, err := workload.PartitionTPCB(base, sh.Router)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	total := 0
	for i, part := range parts {
		if len(part.Owned) == 0 {
			t.Fatalf("shard %d owns no branches", i)
		}
		for _, b := range part.Owned {
			if prev, dup := seen[b]; dup {
				t.Fatalf("branch %d owned by shards %d and %d", b, prev, i)
			}
			seen[b] = i
			total++
		}
	}
	if total != base.Branches {
		t.Fatalf("partition covers %d/%d branches", total, base.Branches)
	}

	var res workload.ShardedResult
	sh.S.Spawn(nil, "drive", func(p *sim.Proc) {
		engines, err := bootAll(p, sh)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		doms := make([]*sim.Domain, n)
		ws := make([]workload.Workload, n)
		for i := range engines {
			doms[i] = sh.Domains[i].Plat.Domain()
			ws[i] = parts[i]
			if err := parts[i].Load(p, engines[i]); err != nil {
				t.Errorf("shard %d load: %v", i, err)
				return
			}
		}
		res, err = workload.RunShardedClients(p, doms, engines, ws, nil, workload.RunnerConfig{
			Clients: 2, Duration: 2 * time.Second,
		})
		if err != nil {
			t.Errorf("sharded run: %v", err)
		}
	})
	if err := sh.S.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Total.Committed == 0 {
		t.Fatal("no transactions committed across the fleet")
	}
	for i, r := range res.Shards {
		if r.Committed == 0 {
			t.Fatalf("shard %d committed nothing: partition starved it", i)
		}
	}
	if res.Total.TxnLatency.Count() != uint64(res.Total.Committed) {
		t.Fatalf("merged latency count %d != committed %d", res.Total.TxnLatency.Count(), res.Total.Committed)
	}
}
