package rig

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReplicaModeProperties: replication is the standby count Normalize
// resolves, not a mode. A remote ack policy defaults it to 2 and K to 1, an
// explicit count is built as given under any policy, and the monitor's
// contract checks the K the logger enforces. The AckQuorum(1) row once built
// no standbys at all yet stamped a "quorum k=1" contract on its run.
func TestReplicaModeProperties(t *testing.T) {
	for _, tc := range []struct {
		cfg         Config
		standbys, k int
	}{
		{Config{}, 0, 0},
		{Config{AckPolicy: core.AckQuorum(1)}, 2, 1},
		{Config{AckPolicy: core.AckQuorum(0)}, 2, 1},
		{Config{AckPolicy: core.AckQuorum(2)}, 2, 2},
		{Config{AckPolicy: core.AckRemoteOnly(1)}, 2, 1},
		{Config{Replicas: 3}, 3, 0},
		{Config{Replicas: 2, AckPolicy: core.AckQuorum(2)}, 2, 2},
		{Config{Replicas: 3, AckPolicy: core.AckQuorum(3)}, 3, 3},
	} {
		tc.cfg.Seed, tc.cfg.NoDaemons, tc.cfg.Trace = 1, true, true
		r, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if len(r.Standbys) != tc.standbys || r.Cfg.Replicas != tc.standbys || (r.Shipper != nil) != (tc.standbys > 0) {
			t.Errorf("%v/%d replicas: built %d standbys, Replicas %d, shipper %v; want %d",
				tc.cfg.AckPolicy, tc.cfg.Replicas, len(r.Standbys), r.Cfg.Replicas, r.Shipper != nil, tc.standbys)
		}
		if got := r.contract().QuorumK; got != tc.k || (tc.k > 0 && r.Cfg.AckPolicy.K != tc.k) {
			t.Errorf("%v: contract QuorumK %d, logger's K %d; want %d", tc.cfg.AckPolicy, got, r.Cfg.AckPolicy.K, tc.k)
		}
		again := r.Cfg
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, r.Cfg) {
			t.Errorf("%v: Normalize is not idempotent: %v, %+v -> %+v", tc.cfg.AckPolicy, err, r.Cfg, again)
		}
		r.Close()
	}
}

func TestReplicaModeBootCommitPowerCycle(t *testing.T) {
	r, err := New(Config{Seed: 5, AckPolicy: core.AckQuorum(1), NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fabric == nil || r.Shipper == nil || len(r.Standbys) != 2 {
		t.Fatalf("replication stack not assembled: fabric=%v shipper=%v standbys=%d",
			r.Fabric != nil, r.Shipper != nil, len(r.Standbys))
	}
	j := workload.NewJournal()
	w := &workload.Stress{}
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := w.Do(p, e, j); err != nil {
				return
			}
		}
		r.CutPower()
		p.Sleep(time.Hour)
	})
	var res workload.VerifyResult
	r.S.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		if _, err := r.RecoverAfterPower(p); err != nil {
			t.Errorf("power recovery: %v", err)
			return
		}
		r.S.Spawn(r.Plat.Domain(), "db2", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				t.Errorf("reboot: %v", err)
				return
			}
			res, err = j.Verify(p, e)
			if err != nil {
				t.Errorf("verify: %v", err)
			}
		})
	})
	if err := r.S.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 30 {
		t.Fatalf("acked %d/30 before power cut", j.Len())
	}
	// The quorum was enforced, not just named: every ack waited on it.
	if n := r.Logger.RapiStats().QuorumWait.Count(); n < 30 {
		t.Fatalf("logger waited on the quorum %d times for 30 acked commits", n)
	}
	if !res.Ok() {
		t.Fatalf("durability violated: %v", res)
	}
	// Every committed byte went through the shipper, and the rebuild after
	// the power cycle must have advanced the stream epoch.
	if r.epoch != 2 {
		t.Fatalf("shipper epoch = %d after one power cycle, want 2", r.epoch)
	}
	for _, st := range r.Standbys {
		if st.AppliedSeq(1) == 0 {
			t.Fatalf("%s never applied anything from epoch 1", st.Name())
		}
	}
}

// TestDumpOutcomeIsPerPowerEpoch: recovery must judge the dump of the epoch
// that just died, not the machine's lifetime counters. Cycle 1 loses power
// with the dump zone broken, so the quorum policy replays from the standbys;
// cycle 2, with nothing left buffered (no dump is written to the zone, which
// is still broken), must report a clean dump path and take nothing from the
// standbys — a stale failure count used to replay two epochs of replica
// records over a locally complete log.
func TestDumpOutcomeIsPerPowerEpoch(t *testing.T) {
	r, err := New(Config{
		Seed: 5, AckPolicy: core.AckQuorum(1), NoDaemons: true,
		DumpFault: disk.FaultConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j := workload.NewJournal()
	w := &workload.Stress{}
	// epoch boots the engine, commits n operations, optionally waits for the
	// drain to empty the buffer, and pulls the plug.
	epoch := func(n int, drain bool, cut *sim.Event) {
		r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				t.Errorf("boot: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := w.Do(p, e, j); err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
			}
			for drain && r.Logger.BufferedBytes() > 0 {
				p.Sleep(10 * time.Millisecond)
			}
			r.CutPower()
			cut.Fire()
			p.Sleep(time.Hour)
		})
	}
	var res workload.VerifyResult
	verified := false
	r.S.Spawn(nil, "op", func(p *sim.Proc) {
		r.FaultyDump.AddBadRange(0, r.DumpPart.Sectors(), false)
		cut := r.S.NewEvent("cut1")
		epoch(30, false, cut)
		cut.Wait(p)
		p.Sleep(5 * time.Second)
		rep, err := r.RecoverAfterPower(p)
		if err != nil {
			t.Errorf("cycle 1 recovery: %v", err)
			return
		}
		if rep.Domains[0].DumpFailures != 1 || r.LastReplicaReplay.Entries == 0 {
			t.Errorf("cycle 1 did not take the failed-dump path: %+v, replica replay %+v", rep.Domains[0], r.LastReplicaReplay)
			return
		}

		cut = r.S.NewEvent("cut2")
		epoch(10, true, cut)
		cut.Wait(p)
		p.Sleep(5 * time.Second)
		rep, err = r.RecoverAfterPower(p)
		if err != nil {
			t.Errorf("cycle 2 recovery: %v", err)
			return
		}
		if got := rep.Domains[0]; got.DumpFailures != 0 || got.DumpRetries != 0 {
			t.Errorf("cycle 2 reports cycle 1's dump outcome: %+v", got)
		}
		if rr := r.LastReplicaReplay; rr.Entries != 0 || rr.Bytes != 0 {
			t.Errorf("cycle 2 replayed replica records over a locally complete log: %+v", rr)
		}

		r.S.Spawn(r.Plat.Domain(), "db3", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				t.Errorf("final boot: %v", err)
				return
			}
			if res, err = j.Verify(p, e); err != nil {
				t.Errorf("verify: %v", err)
			}
			verified = true
		})
	})
	if err := r.S.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !verified || j.Len() != 40 || !res.Ok() {
		t.Fatalf("verified=%v acked=%d/40 %v", verified, j.Len(), res)
	}
}
