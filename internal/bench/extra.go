package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runA5: the TPC-B/pgbench-style sweep. Every transaction is a tiny
// account update that commits immediately — the most commit-latency-bound
// OLTP shape there is, and therefore RapiLog's best case among realistic
// workloads.
func runA5(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients, warmup, dur := []int{1, 4, 16, 64}, 2*time.Second, 10*time.Second
	wl := func() workload.Workload { return &workload.TPCB{Branches: 8, Tellers: 10, Accounts: 2000} }
	if opts.Quick {
		clients, warmup, dur = []int{1, 16}, 500*time.Millisecond, 2*time.Second
		wl = func() workload.Workload { return &workload.TPCB{Branches: 4, Tellers: 5, Accounts: 500} }
	}
	rep := newReport("a5", "TPC-B (pgbench) throughput vs clients, PG-like engine, HDD",
		"the pgbench-style companion workload", nil)
	rep.Notes = append(rep.Notes,
		"expected shape: same ordering as E1, with even larger rapilog/native-sync ratios —",
		"TPC-B transactions are pure commit path.")
	return throughputSweep(rep, opts, rig.Config{CheckpointEvery: 20 * time.Second}, 211, clients, wl, warmup, dur)
}

// runA6: the hardware alternatives RapiLog competes with. A battery-backed
// NVRAM log device makes synchronous commits fast without any hypervisor —
// at the price of the specialised hardware. RapiLog's pitch is matching
// that with a commodity disk plus a verified software layer.
func runA6(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients := 8
	warmup, dur := 2*time.Second, 10*time.Second
	if opts.Quick {
		warmup, dur = 500*time.Millisecond, 2*time.Second
	}

	table := metrics.NewTable("configuration", "log device", "tps", "durable")
	rep := newReport("a6", "hardware alternatives: NVRAM log vs RapiLog",
		"the paper's positioning against specialised hardware", table)

	type cse struct {
		label   string
		mode    rig.Mode
		logKind rig.DiskKind
		device  string
		durable string
	}
	for _, c := range []cse{
		{"native-sync", rig.NativeSync, "", "hdd (shared)", "yes"},
		{"native-sync+nvram", rig.NativeSync, rig.DiskMem, "nvram", "yes (needs battery hw)"},
		{"native-sync+ssd-log", rig.NativeSync, rig.DiskSSD, "ssd", "yes (needs flash hw)"},
		{"rapilog", rig.RapiLog, "", "hdd (shared)", "yes (verified sw)"},
	} {
		cfg := rig.Config{
			Seed:            opts.Seed,
			Mode:            c.mode,
			LogDiskKind:     c.logKind,
			CheckpointEvery: 20 * time.Second,
		}
		res, _, _, err := measureWorkload(cfg, &workload.Stress{ValueSize: 512}, clients, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("a6 %s: %w", c.label, err)
		}
		table.AddRow(c.label, c.device, fmt.Sprintf("%.0f", res.TPS()), c.durable)
		rep.Values[c.label] = res.TPS()
		opts.progressf("a6: %-20s %8.0f tps", c.label, res.TPS())
	}
	rep.Notes = append(rep.Notes,
		"measured shape: NVRAM makes sync commits fast; rapilog on a plain disk reaches the",
		"same performance class — here it beats NVRAM outright — with no specialised",
		"hardware, and beats a dedicated flash log too: verification as a substitute purchase.")
	return rep, nil
}

// runA7: recovery time vs checkpoint age. The cost RapiLog does NOT add:
// its dump replay is tiny next to the engine's own recovery, whose WAL scan
// the checkpoint interval governs.
func runA7(opts Options) (*Report, error) {
	opts.applyDefaults()
	loadFor := 8 * time.Second
	if opts.Quick {
		loadFor = 2 * time.Second
	}
	table := metrics.NewTable("checkpoint interval", "redone txns", "engine recovery", "dump replay")
	rep := newReport("a7", "recovery time vs checkpoint age",
		"recovery-cost discussion", table)

	for _, interval := range []time.Duration{time.Second, 5 * time.Second, time.Hour /* never */} {
		redone, redoTime, dumpTime, err := recoveryTimeTrial(opts.Seed, interval, loadFor)
		if err != nil {
			return nil, fmt.Errorf("a7 ckpt=%v: %w", interval, err)
		}
		label := interval.String()
		if interval == time.Hour {
			label = "never"
		}
		table.AddRow(label, fmt.Sprintf("%d", redone),
			fmt.Sprint(redoTime.Round(time.Millisecond)),
			fmt.Sprint(dumpTime.Round(time.Millisecond)))
		rep.Values[label+"/redone"] = float64(redone)
		rep.Values[label+"/redo_ms"] = float64(redoTime.Milliseconds())
		opts.progressf("a7: ckpt=%-8s redone=%-6d redo=%v", label, redone, redoTime.Round(time.Millisecond))
	}
	rep.Notes = append(rep.Notes,
		"measured shape: engine recovery is the WAL scan, streamed off the disk, plus the index",
		"rebuild's data-page reads once checkpoints have flushed pages (redo itself costs no",
		"virtual time), so it tracks checkpoint age; the RapiLog dump replay is milliseconds",
		"regardless — buffering adds nothing material to recovery time.")
	return rep, nil
}

// recoveryTimeTrial loads a rapilog deployment, cuts power mid-run, and
// measures the virtual time spent in dump replay and in engine recovery.
func recoveryTimeTrial(seed int64, ckptEvery, loadFor time.Duration) (redone int64, redoTime, dumpTime time.Duration, err error) {
	// Data pages live on fast storage so checkpoints complete within their
	// interval (on the HDD a full checkpoint outlives a 1 s cadence and the
	// horizon never advances); the log and dump zone stay on the disk.
	r, rerr := rig.New(rig.Config{
		Seed: seed, Mode: rig.RapiLog,
		Disk: rig.DiskMem, LogDiskKind: rig.DiskHDD,
		CheckpointEvery: ckptEvery,
	})
	if rerr != nil {
		return 0, 0, 0, rerr
	}
	defer r.Close()
	s := r.S
	w := &workload.Stress{ValueSize: 200}
	s.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, berr := r.Boot(p)
		if berr != nil {
			err = berr
			return
		}
		for i := 0; i < 2; i++ {
			client := i
			s.Spawn(r.Plat.Domain(), "client", func(cp *sim.Proc) {
				for {
					if derr := w.DoAs(cp, e, nil, client); derr != nil {
						cp.Sleep(time.Millisecond)
					}
				}
			})
		}
	})
	s.After(loadFor, func() { r.CutPower() })

	done := s.NewEvent("a7.done")
	s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(loadFor + 2*time.Second)
		t0 := p.Now()
		if _, rerr := r.RecoverAfterPower(p); rerr != nil {
			err = rerr
			done.Fire()
			return
		}
		t1 := p.Now()
		s.Spawn(r.Plat.Domain(), "db2", func(p *sim.Proc) {
			defer done.Fire()
			e, berr := r.Boot(p)
			if berr != nil {
				err = berr
				return
			}
			redoTime = p.Now().Sub(t1)
			redone = e.Stats().RedoneTxns.Value()
		})
		dumpTime = t1.Sub(t0)
	})
	if derr := s.RunUntilEvent(done); derr != nil {
		return 0, 0, 0, derr
	}
	return redone, redoTime, dumpTime, err
}
