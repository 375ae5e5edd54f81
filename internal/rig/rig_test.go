package rig

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestAllModesBootAndCommit(t *testing.T) {
	for _, mode := range Modes {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			r, err := New(Config{Seed: 1, Mode: mode, NoDaemons: true})
			if err != nil {
				t.Fatal(err)
			}
			var ok bool
			r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
				e, err := r.Boot(p)
				if err != nil {
					t.Errorf("boot: %v", err)
					return
				}
				tx := e.Begin(p)
				_ = tx.Put("k", []byte("v"))
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				tx2 := e.Begin(p)
				v, found, _ := tx2.Get("k")
				ok = found && string(v) == "v"
				_ = tx2.Commit()
			})
			if err := r.S.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("commit/read round trip failed")
			}
		})
	}
}

func TestModeProperties(t *testing.T) {
	if NativeSync.Virtualised() || NativeAsync.Virtualised() {
		t.Fatal("native modes report virtualised")
	}
	if !VirtSync.Virtualised() || !RapiLog.Virtualised() {
		t.Fatal("virt modes report native")
	}
	if NativeAsync.CommitMode() != engine.CommitAsync {
		t.Fatal("native-async commit mode")
	}
	if RapiLog.CommitMode() != engine.CommitSync {
		t.Fatal("rapilog must use sync commits (that is the whole point)")
	}
}

func TestRapiLogModeHasLoggerAndHV(t *testing.T) {
	r, err := New(Config{Seed: 1, Mode: RapiLog})
	if err != nil {
		t.Fatal(err)
	}
	if r.Logger == nil || r.HV == nil {
		t.Fatal("rapilog rig missing logger or hypervisor")
	}
	if r.Logger.MaxBuffer() <= 0 {
		t.Fatal("logger has no buffer budget")
	}
	r2, err := New(Config{Seed: 1, Mode: NativeSync})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Logger != nil || r2.HV != nil {
		t.Fatal("native rig has virtualisation objects")
	}
}

func TestGuestCrashRecoveryRapiLog(t *testing.T) {
	r, err := New(Config{Seed: 2, Mode: RapiLog, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	crashed := r.S.NewEvent("crashed")
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 15; i++ {
			tx := e.Begin(p)
			k := fmt.Sprintf("k%d", i)
			_ = tx.Put(k, []byte("v"))
			if err := tx.Commit(); err != nil {
				return
			}
			acked = append(acked, k)
		}
		crashed.Fire()
		r.CrashOS()
	})
	verified := false
	r.S.Spawn(nil, "op", func(p *sim.Proc) {
		crashed.Wait(p)
		p.Sleep(time.Millisecond)
		r.RebootAfterCrash()
		r.S.Spawn(r.Plat.Domain(), "db2", func(p *sim.Proc) {
			e, err := r.Boot(p)
			if err != nil {
				t.Errorf("reboot: %v", err)
				return
			}
			tx := e.Begin(p)
			for _, k := range acked {
				if _, ok, _ := tx.Get(k); !ok {
					t.Errorf("acked %s lost after guest crash", k)
				}
			}
			_ = tx.Commit()
			verified = true
		})
	})
	if err := r.S.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(acked) != 15 || !verified {
		t.Fatalf("acked=%d verified=%v", len(acked), verified)
	}
}

func TestPowerCycleRecoveryRapiLog(t *testing.T) {
	r, err := New(Config{Seed: 3, Mode: RapiLog, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
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
	if !res.Ok() {
		t.Fatalf("durability violated: %v", res)
	}
}

func TestNativeAsyncIsUnsafeUnderCrash(t *testing.T) {
	r, err := New(Config{Seed: 4, Mode: NativeAsync, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	j := workload.NewJournal()
	w := &workload.Stress{}
	crashed := r.S.NewEvent("crashed")
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			_ = w.Do(p, e, j)
		}
		crashed.Fire()
		r.CrashOS()
	})
	var res workload.VerifyResult
	r.S.Spawn(nil, "op", func(p *sim.Proc) {
		crashed.Wait(p)
		p.Sleep(time.Millisecond)
		r.RebootAfterCrash()
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
	if err := r.S.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Missing == 0 {
		t.Fatal("native-async lost nothing across a crash; the unsafe baseline should lose acks")
	}
}

// TestUnknownConfigsRejected is the config table: every row is a machine no
// one can build, rejected by name before anything is built. The standby rows
// are what the CLI's -quorum/-replicas pre-check used to hold: K over the
// default pool of 2 or over an explicit count, a negative K or count, and
// replication on a mode with no log device to ship.
func TestUnknownConfigsRejected(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Mode: "bogus"}, "unknown mode"},
		{Config{Disk: "tape"}, "unknown disk kind"},
		{Config{Shards: -1}, "negative shard count"},
		{Config{Mode: NativeSync, Shards: 2}, "cannot be sharded"},
		// A trace event names its log domain in one byte.
		{Config{Shards: 256}, "Shards 256"},
		{Config{Replicas: -2}, "Replicas -2"},
		{Config{AckPolicy: core.AckQuorum(-1)}, "AckPolicy.K -1"},
		{Config{AckPolicy: core.AckQuorum(3)}, "AckPolicy.K 3 exceeds Replicas 2"},
		{Config{Replicas: 2, AckPolicy: core.AckQuorum(3)}, "AckPolicy.K 3 exceeds Replicas 2"},
		{Config{Replicas: 1, AckPolicy: core.AckRemoteOnly(2)}, "AckPolicy.K 2 exceeds Replicas 1"},
		{Config{Mode: VirtSync, Replicas: 2}, `mode "virt-sync" cannot replicate`},
		{Config{Mode: NativeSync, AckPolicy: core.AckQuorum(1)}, `mode "native-sync" cannot replicate`},
	} {
		if r, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			if r != nil {
				r.Close()
			}
			t.Errorf("mode %q, %d replicas, %v, %d shards: err = %v, want a config error with %q",
				tc.cfg.Mode, tc.cfg.Replicas, tc.cfg.AckPolicy, tc.cfg.Shards, err, tc.want)
		}
	}
	// A sharded machine is verified like any other.
	for _, ok := range []Config{{Shards: 1, Flight: true}, {Shards: 2, Trace: true}, {Shards: 2, Flight: true}} {
		r, err := New(ok)
		if err != nil {
			t.Fatalf("%+v rejected: %v", ok, err)
		}
		if r.Monitor == nil || (r.Flight != nil) != ok.Flight {
			t.Fatalf("Shards: %d, Flight: %v: monitor %v, recorder %v", ok.Shards, ok.Flight, r.Monitor, r.Flight)
		}
		r.Close()
	}
}

// TestDedicatedLogDiskSeparatesDevices: a set LogDiskKind is a dedicated log
// device of that kind — including the same kind as Disk, the classic second
// spindle.
func TestDedicatedLogDiskSeparatesDevices(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default+hdd": {LogDiskKind: DiskHDD}, // Disk defaults to DiskHDD
		"ssd+ssd":     {Disk: DiskSSD, LogDiskKind: DiskSSD},
		"hdd+mem":     {Disk: DiskHDD, LogDiskKind: DiskMem},
	} {
		cfg.Seed, cfg.Mode = 5, RapiLog
		t.Run(name, func(t *testing.T) { testDedicatedLogDisk(t, cfg) })
	}
}

func testDedicatedLogDisk(t *testing.T, cfg Config) {
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.LogPart.Parent() == r.DataPart.Parent() {
		t.Fatal("log and data share a device despite LogDiskKind")
	}
	if r.LogPart.Parent() != r.DumpPart.Parent() {
		t.Fatal("log and dump zone must share the dedicated spindle")
	}
	// The stack must still work end to end, including power recovery.
	j := workload.NewJournal()
	w := &workload.Stress{}
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
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
			t.Errorf("recover: %v", err)
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
	if j.Len() != 20 || !res.Ok() {
		t.Fatalf("durability on dedicated spindle: acked=%d %v", j.Len(), res)
	}
}

// TestSameSeedTPCBRigsAreIdentical runs the contended TPC-B load twice in
// one process on same-seed rigs. Hot-row lock hand-off used to follow Go's
// map iteration order (lockTable.releaseAll), so two runs committed
// slightly different counts; they must agree to the event.
func TestSameSeedTPCBRigsAreIdentical(t *testing.T) {
	run := func() (committed int64, events uint64) {
		r, err := New(Config{Seed: 1, Mode: RapiLog})
		if err != nil {
			t.Fatal(err)
		}
		done := r.S.NewEvent("done")
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
			res := workload.RunClients(p, r.Plat.Domain(), e, w, workload.RunnerConfig{
				Clients: 8, Duration: 100 * time.Millisecond, Retries: 100,
			})
			committed = res.Committed
		})
		if err := r.S.RunUntilEvent(done); err != nil {
			t.Fatal(err)
		}
		return committed, r.S.Dispatched()
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 == 0 {
		t.Fatal("no transaction committed")
	}
	if c1 != c2 || e1 != e2 {
		t.Fatalf("same-seed runs differ: committed %d vs %d, events %d vs %d", c1, c2, e1, e2)
	}
}
