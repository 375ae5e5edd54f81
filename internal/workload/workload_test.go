package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/power"
	"repro/internal/sim"
)

func rig(seed int64) (*sim.Sim, *power.Machine, *hv.Native) {
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	logd := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 18})
	datad := disk.NewMem(s, disk.MemConfig{Name: "data", Persistent: true, Capacity: 1 << 19})
	m.AttachDevice(logd)
	m.AttachDevice(datad)
	return s, m, hv.NewNative(m, logd, datad)
}

func TestTPCCLoadAndMix(t *testing.T) {
	s, _, plat := rig(1)
	w := &TPCC{Warehouses: 1, Districts: 2, Customers: 10, Items: 100}
	var committed int
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := w.Load(p, e); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		j := NewJournal()
		for i := 0; i < 200; i++ {
			if err := w.Do(p, e, j); err != nil {
				t.Errorf("txn %d: %v", i, err)
				return
			}
			committed++
		}
		// Sanity: the mix should have produced new-order and payment
		// obligations.
		if j.Len() == 0 {
			t.Error("no journal obligations from 200 transactions")
		}
		res, err := j.Verify(p, e)
		if err != nil || !res.Ok() {
			t.Errorf("live verify failed: %v %v", res, err)
		}
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if committed != 200 {
		t.Fatalf("committed %d/200", committed)
	}
}

func TestTPCCOrderIDsAreDense(t *testing.T) {
	s, _, plat := rig(2)
	w := &TPCC{Warehouses: 1, Districts: 1, Customers: 10, Items: 50}
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := w.Load(p, e); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := w.newOrder(p, e, nil); err != nil {
				t.Errorf("new order: %v", err)
				return
			}
		}
		tx := e.Begin(p)
		dv, ok, _ := tx.Get(key("d", 1, 1))
		if !ok {
			t.Error("district missing")
			return
		}
		nextOID, _, _, _ := decDistrict(dv)
		if nextOID != 31 {
			t.Errorf("nextOID = %d, want 31", nextOID)
		}
		for oid := 1; oid <= 30; oid++ {
			if _, ok, _ := tx.Get(key("o", 1, 1, oid)); !ok {
				t.Errorf("order %d missing", oid)
			}
		}
		_ = tx.Commit()
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestTPCCDeliveryConsumesOrders(t *testing.T) {
	s, _, plat := rig(3)
	w := &TPCC{Warehouses: 1, Districts: 1, Customers: 10, Items: 50}
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		_ = w.Load(p, e)
		for i := 0; i < 5; i++ {
			if err := w.newOrder(p, e, nil); err != nil {
				t.Errorf("new order: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := w.delivery(p, e, nil); err != nil {
				t.Errorf("delivery: %v", err)
			}
		}
		tx := e.Begin(p)
		dv, _, _ := tx.Get(key("d", 1, 1))
		_, nextDeliv, _, _ := decDistrict(dv)
		if nextDeliv != 4 {
			t.Errorf("nextDeliv = %d, want 4", nextDeliv)
		}
		ov, ok, _ := tx.Get(key("o", 1, 1, 1))
		if !ok {
			t.Error("order 1 missing")
		} else {
			var cid, nl, delivered int
			_, _ = fmt.Sscanf(string(ov), "%d|%d|%d|", &cid, &nl, &delivered)
			if delivered != 1 {
				t.Error("order 1 not marked delivered")
			}
		}
		_ = tx.Commit()
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestTPCBBalancesConserved(t *testing.T) {
	s, _, plat := rig(4)
	w := &TPCB{Branches: 1, Tellers: 2, Accounts: 20}
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		_ = w.Load(p, e)
		for i := 0; i < 50; i++ {
			if err := w.Do(p, e, nil); err != nil {
				t.Errorf("txn: %v", err)
				return
			}
		}
		// Branch total must equal the sum of account deltas: both got the
		// same per-transaction delta.
		tx := e.Begin(p)
		var branchBal, accountSum int
		bv, _, _ := tx.Get(key("b", 1))
		_, _ = fmt.Sscanf(string(bv), "%d|", &branchBal)
		for a := 1; a <= w.Accounts; a++ {
			av, _, _ := tx.Get(key("a", 1, a))
			var bal int
			_, _ = fmt.Sscanf(string(av), "%d|", &bal)
			accountSum += bal
		}
		_ = tx.Commit()
		if branchBal != accountSum {
			t.Errorf("branch %d != account sum %d", branchBal, accountSum)
		}
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestRunClientsProducesThroughput(t *testing.T) {
	s, _, plat := rig(5)
	w := &Stress{}
	var res RunResult
	s.Spawn(nil, "harness", func(p *sim.Proc) {
		var e *engine.Engine
		boot := s.NewEvent("boot")
		s.Spawn(plat.Domain(), "db", func(dp *sim.Proc) {
			var err error
			e, err = engine.Open(dp, plat, engine.Config{NoDaemons: true})
			if err != nil {
				t.Errorf("open: %v", err)
			}
			boot.Fire()
		})
		boot.Wait(p)
		res = RunClients(p, plat.Domain(), e, w, RunnerConfig{Clients: 4, Duration: 2 * time.Second})
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.TPS() <= 0 {
		t.Fatalf("TPS = %v", res.TPS())
	}
	if res.TxnLatency.Count() != uint64(res.Committed) {
		t.Fatalf("latency samples %d != committed %d", res.TxnLatency.Count(), res.Committed)
	}
}

func TestRunClientsWarmupExcluded(t *testing.T) {
	s, _, plat := rig(6)
	w := &Stress{}
	var warm, cold RunResult
	s.Spawn(nil, "harness", func(p *sim.Proc) {
		boot := s.NewEvent("boot")
		var e *engine.Engine
		s.Spawn(plat.Domain(), "db", func(dp *sim.Proc) {
			var err error
			e, err = engine.Open(dp, plat, engine.Config{NoDaemons: true})
			if err != nil {
				t.Errorf("open: %v", err)
			}
			boot.Fire()
		})
		boot.Wait(p)
		cold = RunClients(p, plat.Domain(), e, w, RunnerConfig{Clients: 2, Duration: time.Second})
		warm = RunClients(p, plat.Domain(), e, w, RunnerConfig{Clients: 2, Duration: time.Second, Warmup: 500 * time.Millisecond})
	})
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if warm.Duration != time.Second || cold.Duration != time.Second {
		t.Fatalf("durations: %v %v", warm.Duration, cold.Duration)
	}
	if warm.Committed == 0 {
		t.Fatal("no committed txns with warmup")
	}
}

func TestJournalVerifyDetectsLoss(t *testing.T) {
	s, _, plat := rig(7)
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		j := NewJournal()
		tx := e.Begin(p)
		_ = tx.Put("present", []byte("v"))
		_ = tx.Commit()
		j.Add("present", []byte("v"))
		j.Add("never-written", nil)         // fabricated: must show missing
		j.Add("present", []byte("other-v")) // fabricated: must show mismatch
		res, err := j.Verify(p, e)
		if err != nil {
			t.Errorf("verify: %v", err)
			return
		}
		if res.Missing != 1 || res.Mismatched != 1 || res.Checked != 3 {
			t.Errorf("verify result: %+v", res)
		}
		if res.Ok() {
			t.Error("Ok() true despite violations")
		}
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadNames(t *testing.T) {
	if (&TPCC{}).Name() != "tpcc" || (&TPCB{}).Name() != "tpcb" || (&Stress{}).Name() != "stress" {
		t.Fatal("workload names wrong")
	}
}

// The rows a journal keeps are the transaction's own: eight clients share
// one instance's row scratch, so a journaled row encoded there would read
// back as whatever another client encoded last.
func TestJournalOwnsItsRows(t *testing.T) {
	for _, w := range []Workload{&TPCB{Accounts: 200}, &TPCC{Warehouses: 1, Customers: 10, Items: 100}} {
		t.Run(w.Name(), func(t *testing.T) {
			s, _, plat := rig(8)
			j := NewJournal()
			var res VerifyResult
			s.Spawn(nil, "harness", func(p *sim.Proc) {
				var e *engine.Engine
				boot := s.NewEvent("boot")
				s.Spawn(plat.Domain(), "db", func(dp *sim.Proc) {
					var err error
					if e, err = engine.Open(dp, plat, engine.Config{NoDaemons: true}); err == nil {
						err = w.Load(dp, e)
					}
					if err != nil {
						t.Errorf("open and load: %v", err)
					}
					boot.Fire()
				})
				boot.Wait(p)
				RunClients(p, plat.Domain(), e, w, RunnerConfig{Clients: 8, Duration: 150 * time.Millisecond, Journal: j})
				audit := s.NewEvent("audit")
				s.Spawn(plat.Domain(), "audit", func(ap *sim.Proc) {
					defer audit.Fire()
					var err error
					if res, err = j.Verify(ap, e); err != nil {
						t.Errorf("verify: %v", err)
					}
				})
				audit.Wait(p)
			})
			if err := s.RunFor(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			exact := 0
			for i := 0; i < j.Len(); i++ {
				if j.entries[i].Want != nil {
					exact++
				}
			}
			if exact < 100 {
				t.Fatalf("only %d journaled rows with contents to check", exact)
			}
			if !res.Ok() || res.Checked != j.Len() {
				t.Fatalf("%v (of %d obligations, %d with contents)", res, j.Len(), exact)
			}
		})
	}
}
