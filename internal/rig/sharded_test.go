package rig

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestOneShardIsThePapersMachine: a one-domain machine has one encoding.
// Shards 1 used to build a fleet of one: "shard0."-prefixed names, its own
// seed offset, and a Run that split the workload into a one-clone partition
// drawing one more random number per transaction — a second schedule for
// the same machine.
func TestOneShardIsThePapersMachine(t *testing.T) {
	r, err := New(Config{Seed: 3, NoDaemons: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Cfg.Shards != 0 || len(r.Domains) != 1 || r.at.prefix != "" || r.at.seedOffset != 0 {
		t.Fatalf("Shards 1 built a fleet: Cfg.Shards %d, %d domains, prefix %q, seed offset %d",
			r.Cfg.Shards, len(r.Domains), r.at.prefix, r.at.seedOffset)
	}
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
	if sh.Cfg.Mode != RapiLog || len(sh.Domains) != n || sh.LogDomain != sh.Domains[0] {
		t.Fatalf("mode=%q domains=%d", sh.Cfg.Mode, len(sh.Domains))
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
		engines, err := sh.BootAll(p)
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
	if got := sh.RollupCounter("engine.commits"); got < 20 {
		t.Fatalf("fleet commits roll-up = %d, want >= 20", got)
	}
	// One machine, one hypervisor: every shard's guest exits into the root
	// bundle's counter, and no shard has a hypervisor of its own.
	if reg.Counter("hv.exits").Value() == 0 {
		t.Fatal("the machine's hypervisor counted no VM exits")
	}
	for _, name := range metricNames(reg) {
		if strings.HasSuffix(name, ".hv.exits") {
			t.Fatalf("per-shard hypervisor instrument %q, want the shared one only", name)
		}
	}
}

// TestShardedBufferBoundIsTheSharedOne: a shard's buffer answers to its
// N-sharer bound, not to the one-sharer bound of a machine with one log. A
// MaxBuffer between the two is refused unless Unsafe, and an Unsafe shard
// still reports the N-sharer bound as its exposure limit. Under remote-only
// acks a PSU with no local bound at all is no reason to refuse a sharded
// machine either: each shard gets the buffer an unsharded machine gets.
func TestShardedBufferBoundIsTheSharedOne(t *testing.T) {
	const n = 4
	def, err := New(Config{Seed: 1, NoDaemons: true, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	shared := def.SafeBound()
	single := core.SafeBufferSize(def.Machine, def.DumpPart, 1)
	def.Close()
	if shared <= 0 || shared >= single {
		t.Fatalf("test premise broken: %d-sharer bound %d, one-sharer bound %d", n, shared, single)
	}
	over := core.Config{MaxBuffer: (shared + single) / 2}
	if r, err := New(Config{Seed: 1, NoDaemons: true, Shards: n, RapiLog: over}); err == nil {
		r.Close()
		t.Fatalf("MaxBuffer %d above the %d-sharer bound %d accepted without Unsafe", over.MaxBuffer, n, shared)
	}
	over.Unsafe = true
	r, err := New(Config{Seed: 1, NoDaemons: true, Shards: n, RapiLog: over})
	if err != nil {
		t.Fatalf("Unsafe MaxBuffer %d refused: %v", over.MaxBuffer, err)
	}
	for i, d := range r.Domains {
		if d.Logger.MaxBuffer() != over.MaxBuffer || d.SafeBound() != shared {
			t.Errorf("shard %d: buffer %d, SafeBound %d; want %d and the %d-sharer bound %d",
				i, d.Logger.MaxBuffer(), d.SafeBound(), over.MaxBuffer, n, shared)
		}
	}
	r.Close()

	hopeless := power.PSUConfig{Name: "hopeless", HoldupMin: time.Millisecond, HoldupMax: time.Millisecond,
		InterruptLatency: 2 * time.Millisecond}
	remote := Config{Seed: 1, NoDaemons: true, PSU: hopeless, AckPolicy: core.AckRemoteOnly(1)}
	one, err := New(remote)
	if err != nil {
		t.Fatalf("unsharded remote-only machine on a hopeless PSU: %v", err)
	}
	want := one.Logger.MaxBuffer()
	one.Close()
	remote.Shards = 2
	sh, err := New(remote)
	if err != nil {
		t.Fatalf("sharded remote-only machine on a hopeless PSU: %v", err)
	}
	defer sh.Close()
	for i, d := range sh.Domains {
		if got := d.Logger.MaxBuffer(); got != want {
			t.Errorf("shard %d buffer %d, the unsharded machine's %d", i, got, want)
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
				engines, err := sh.BootAll(p)
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
				if len(rep.Domains) != n {
					t.Errorf("merged report has %d sections, want %d", len(rep.Domains), n)
				}
				if f := rep.Flight; f == nil || f.Reason != "power-dc-loss" {
					t.Errorf("flight record not frozen at power-dc-loss")
				} else if f.Monitor == nil || f.Monitor.Total != 0 {
					t.Errorf("flight record's monitor verdict: %+v", f.Monitor)
				}
				for i, sr := range rep.Domains {
					if bound := sh.Domains[i].SafeBound(); sr.Bytes > bound {
						t.Errorf("shard %d dumped %d bytes, exceeds its hold-up share %d", i, sr.Bytes, bound)
					}
				}
				engines, err := sh.BootAll(p)
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
// across shards: every shard commits, and the machine-wide merge counts
// every commit once.
func TestShardedPartitionedWorkloadRouting(t *testing.T) {
	sh, err := New(Config{Seed: 13, NoDaemons: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	res, err := sh.Run(&workload.TPCB{Branches: 8, Tellers: 2, Accounts: 50}, workload.RunnerConfig{
		Clients: 2, Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if res.Total.Committed == 0 {
		t.Fatal("no transactions committed across the fleet")
	}
	for i, r := range res.Domains {
		if r.Committed == 0 {
			t.Fatalf("shard %d committed nothing: partition starved it", i)
		}
	}
	if res.Total.TxnLatency.Count() != uint64(res.Total.Committed) {
		t.Fatalf("merged latency count %d != committed %d", res.Total.TxnLatency.Count(), res.Total.Committed)
	}
}

// TestRecoveryMerge folds per-domain recovery sections into machine totals.
func TestRecoveryMerge(t *testing.T) {
	m := Recovery{Domains: []core.RecoveryReport{
		{Entries: 3, Bytes: 1536, HadDump: true},
		{Entries: 0, Bytes: 0},
		{Entries: 5, Bytes: 2560, HadDump: true, Torn: true, DumpFailures: 1},
	}}
	if got := m.Entries(); got != 8 {
		t.Fatalf("Entries() = %d, want 8", got)
	}
	if got := m.Bytes(); got != 4096 {
		t.Fatalf("Bytes() = %d, want 4096", got)
	}
	if !m.HadDump() || !m.Torn() {
		t.Fatalf("HadDump()=%v Torn()=%v, want true/true", m.HadDump(), m.Torn())
	}
	if got := m.DumpFailures(); got != 1 {
		t.Fatalf("DumpFailures() = %d, want 1", got)
	}
}

// TestRollups sums and merges an instrument over every domain's registry
// view; a domain that never registered it contributes zero.
func TestRollups(t *testing.T) {
	const n = 3
	r, err := New(Config{Seed: 1, NoDaemons: true, Disk: DiskSSD, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, d := range r.Domains {
		reg := d.Obs.Registry()
		reg.Counter("engine.commits").Add(int64(10 * (i + 1)))
		reg.Histogram("engine.commit.ack_latency").Observe(time.Duration(i+1) * time.Millisecond)
	}
	if got := r.Obs.Registry().Counter(obs.ShardPrefix(2) + ".engine.commits").Value(); got != 30 {
		t.Fatalf("shard 2's view registered %d under %s.engine.commits, want 30", got, obs.ShardPrefix(2))
	}
	if got := r.RollupCounter("engine.commits"); got != 60 {
		t.Fatalf("RollupCounter = %d, want 60", got)
	}
	h := r.RollupHistogram("engine.commit.ack_latency")
	if h.Count() != n {
		t.Fatalf("RollupHistogram count = %d, want %d", h.Count(), n)
	}
	if h.Max() < 3*time.Millisecond || h.Min() > time.Millisecond {
		t.Fatalf("RollupHistogram min/max wrong: min=%v max=%v", h.Min(), h.Max())
	}
	// Roll-ups are safe to run before traffic starts.
	if got := r.RollupCounter("engine.aborts"); got != 0 {
		t.Fatalf("RollupCounter over unregistered = %d, want 0", got)
	}
}
