package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runE4 measures the virtualisation overhead on a CPU-bound workload: TPC-C
// over memory-backed storage, so disk latency cannot hide the exit costs
// and the CPU inflation. Stands in for the paper's overhead table.
func runE4(opts Options) (*Report, error) {
	opts.applyDefaults()
	clients := 8
	warmup, dur := 2*time.Second, 10*time.Second
	wl := func() *workload.TPCC { return &workload.TPCC{Warehouses: 2, Districts: 8, Customers: 30, Items: 400} }
	if opts.Quick {
		warmup, dur = 500*time.Millisecond, 2*time.Second
		wl = func() *workload.TPCC { return &workload.TPCC{Warehouses: 1, Districts: 4, Customers: 10, Items: 100} }
	}

	table := metrics.NewTable("configuration", "tps", "overhead")
	rep := newReport("e4", "virtualisation overhead, CPU-bound TPC-C",
		"virtualisation-overhead table", table)

	var nativeTPS float64
	for _, mode := range []rig.Mode{rig.NativeSync, rig.VirtSync} {
		cfg := rig.Config{
			Seed:            opts.Seed,
			Mode:            mode,
			Personality:     engine.PGLike,
			Disk:            rig.DiskMem, // storage fast enough to be CPU-bound
			CheckpointEvery: 20 * time.Second,
		}
		res, _, _, err := measureWorkload(cfg, wl(), clients, warmup, dur)
		if err != nil {
			return nil, fmt.Errorf("e4 %s: %w", mode, err)
		}
		tps := res.TPS()
		rep.Values[string(mode)] = tps
		overhead := "—"
		if mode == rig.NativeSync {
			nativeTPS = tps
		} else if nativeTPS > 0 {
			ov := (nativeTPS - tps) / nativeTPS * 100
			overhead = fmt.Sprintf("%.1f%%", ov)
			rep.Values["overhead_pct"] = ov
		}
		table.AddRow(string(mode), fmt.Sprintf("%.0f", tps), overhead)
		opts.progressf("e4: %-12s %8.0f tps", mode, tps)
	}
	rep.Notes = append(rep.Notes, "expected shape: modest (≈5–20%) overhead from exit costs and CPU inflation —",
		"the price the paper says RapiLog's gains must be measured against.")
	return rep, nil
}

// runE5 builds the PSU hold-up table: for each PSU profile and device, the
// safe buffer bound, the drive's worst-case time to dump it, the margin that
// leaves before the hold-up deadline, and a live plug-pull validating that a
// full buffer actually lands. Stands in for the paper's PSU measurement
// table.
func runE5(opts Options) (*Report, error) {
	opts.applyDefaults()
	table := metrics.NewTable("psu", "device", "hold-up min", "safe buffer", "worst-case dump", "worst margin", "live dump")
	rep := newReport("e5", "PSU hold-up vs emergency-flush requirement",
		"PSU hold-up measurement table", table)

	psus := []power.PSUConfig{power.PSUATXSpec, power.PSUTypical, power.PSUMeasured}
	devices := []rig.DiskKind{rig.DiskHDD, rig.DiskSSD}
	for _, psu := range psus {
		for _, dk := range devices {
			// Computed side of the row.
			s := sim.New(opts.Seed)
			m := power.NewMachine(s, "m", 4, psu)
			var dev disk.Drive
			switch dk {
			case rig.DiskHDD:
				dev = disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
			case rig.DiskSSD:
				dev = disk.NewSSD(s, disk.SSDConfig{})
			}
			zone, err := disk.NewDumpZone(dev, "dump", 0, 131072)
			if err != nil {
				return nil, err
			}
			safe := core.SafeBufferSize(m, zone, 1)
			s.Close() // only built to be measured; its device daemons never ran
			key := fmt.Sprintf("%s/%s/", psu.Name, dk)
			est, slack, live := "n/a", "n/a", "n/a"
			if safe > 0 {
				worst := core.WorstCaseDump(zone, safe)
				est = fmt.Sprint(worst.Round(100 * time.Microsecond))
				margin := m.InterruptBudget() - worst
				slack = fmt.Sprint(margin)
				rep.Values[key+"worst_margin_us"] = float64(margin) / float64(time.Microsecond)
				ok, err := liveDumpCheck(opts.Seed, psu, dk)
				if err != nil {
					return nil, fmt.Errorf("e5 live check %s/%s: %w", psu.Name, dk, err)
				}
				live = "ok"
				if !ok {
					live = "LOST DATA"
				}
				rep.Values[key+"live_ok"] = boolTo01(ok)
			}
			table.AddRow(psu.Name, string(dk), fmt.Sprint(psu.HoldupMin), fmtBytes(safe), est, slack, live)
			rep.Values[key+"safe_bytes"] = float64(safe)
			opts.progressf("e5: %-9s %-4s safe=%s", psu.Name, dk, fmtBytes(safe))
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: safe buffer scales with hold-up; the worst-case dump (the drive's answer for",
		"the dump image: its longest hold of the arm, positioning, transfer) ends inside the budget on",
		"every row; the ATX spec minimum supports no buffer on a rotating disk — measured hold-ups",
		"make RapiLog viable.")
	return rep, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fmtBytes(n int64) string {
	switch {
	case n <= 0:
		return "0"
	case n < 1<<20:
		return fmt.Sprintf("%.0f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	}
}

// liveDumpCheck fills a RapiLog buffer to its bound with raw writes to
// unique blocks (so write absorption cannot shrink it), pulls the plug, and
// verifies every acknowledged byte is on the log partition after dump
// recovery. This validates the sizing rule end to end, worst case.
func liveDumpCheck(seed int64, psu power.PSUConfig, dk rig.DiskKind) (bool, error) {
	r, err := rig.New(rig.Config{Seed: seed, Mode: rig.RapiLog, Disk: dk, PSU: psu, NoDaemons: true})
	if err != nil {
		return false, err
	}
	defer r.Close()
	s := r.S
	target := r.Logger.MaxBuffer() * 8 / 10
	chunk := max(disk.SectorSize, min(64<<10, target/4/disk.SectorSize*disk.SectorSize)) // reaches target within the bound
	lba := func(i int) int64 { return int64(i) * chunk / disk.SectorSize }
	var acked [][]byte // write i, at lba(i)
	s.Spawn(r.Plat.Domain(), "filler", func(p *sim.Proc) {
		for i := 0; r.Logger.BufferedBytes() < target; i++ {
			data := make([]byte, chunk)
			for k := range data {
				data[k] = byte(i + k)
			}
			if err := r.Logger.Write(p, lba(i), data, false); err != nil {
				break
			}
			acked = append(acked, data)
		}
		r.CutPower()
		p.Sleep(time.Hour)
	})
	var ok bool
	audit := s.NewEvent("audit")
	s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		if _, err := r.RecoverAfterPower(p); err != nil {
			audit.Fire()
			return
		}
		boot := s.NewDomain("boot")
		s.Spawn(boot, "auditor", func(p *sim.Proc) {
			defer audit.Fire()
			for i, want := range acked {
				got := make([]byte, chunk)
				n, err := r.LogPart.Read(p, lba(i), got)
				if err != nil || !bytes.Equal(got[:n], want) {
					return
				}
			}
			ok = len(acked) > 0
		})
	})
	if err := s.RunUntilEvent(audit); err != nil {
		return false, err
	}
	return ok, nil
}

// campaign runs cfg; a trial error fails it, since a row must count only
// trials that ran.
func campaign(what string, cfg faultinject.CampaignConfig) (faultinject.Summary, error) {
	sum, err := faultinject.RunCampaign(cfg)
	if err == nil && sum.Errors > 0 {
		err = fmt.Errorf("%d trial errors (first: %v)", sum.Errors, sum.FirstErr())
	}
	if err != nil {
		return sum, fmt.Errorf("%s: %w", what, err)
	}
	return sum, nil
}

// campaignReport starts a report with one row per fault campaign.
func campaignReport(id, title, stands string) *Report {
	return newReport(id, title, stands, metrics.NewTable("configuration", "trials", "acked commits", "lost", "violating trials"))
}

// addCampaign runs cfg as rep's row label.
func addCampaign(rep *Report, opts Options, label string, cfg faultinject.CampaignConfig) (faultinject.Summary, error) {
	sum, err := campaign(rep.ID+" "+label, cfg)
	if err != nil {
		return sum, err
	}
	rep.Table.AddRow(label,
		fmt.Sprintf("%d", len(sum.Trials)),
		fmt.Sprintf("%d", sum.TotalAcked),
		fmt.Sprintf("%d", sum.TotalLost),
		fmt.Sprintf("%d", sum.Violations))
	rep.Values[label+"/acked"] = float64(sum.TotalAcked)
	rep.Values[label+"/lost"] = float64(sum.TotalLost)
	rep.Values[label+"/violations"] = float64(sum.Violations)
	opts.progressf("%s: %-33s %d trials, %d acked, %d lost", rep.ID, label, len(sum.Trials), sum.TotalAcked, sum.TotalLost)
	return sum, nil
}

// runE6: repeated plug-pulls under TPC-C load, one campaign per engine
// personality, all in rapilog mode. The paper's headline safety result:
// zero committed transactions lost.
func runE6(opts Options) (*Report, error) {
	opts.applyDefaults()
	trials := 50
	if opts.Quick {
		trials = 4
	}
	rep := campaignReport("e6", "power-failure trials under load (plug pulls)",
		"power-failure experiment table")
	for _, pers := range []engine.Personality{engine.PGLike, engine.MYLike, engine.CXLike} {
		cfg := faultinject.CampaignConfig{
			Rig:    rig.Config{Seed: opts.Seed, Mode: rig.RapiLog, Personality: pers},
			Fault:  faultinject.PowerCut,
			Trials: trials,
		}
		if _, err := addCampaign(rep, opts, "rapilog/"+pers.Name, cfg); err != nil {
			return nil, err
		}
	}
	rep.Notes = append(rep.Notes, "expected shape: zero acked commits lost in every trial, every engine.")
	return rep, nil
}

// runE9: guest-OS crash campaign, rapilog (survives: the verified
// hypervisor keeps draining) vs native-async (loses recent acks).
func runE9(opts Options) (*Report, error) {
	opts.applyDefaults()
	trials := 50
	if opts.Quick {
		trials = 4
	}
	rep := campaignReport("e9", "guest-OS crash trials under load",
		"software-crash experiment table")
	for _, mode := range []rig.Mode{rig.RapiLog, rig.NativeAsync} {
		cfg := faultinject.CampaignConfig{
			Rig:    rig.Config{Seed: opts.Seed, Mode: mode},
			Fault:  faultinject.GuestCrash,
			Trials: trials,
			NewWorkload: func() workload.Workload {
				return &workload.Stress{} // maximise the unsafe window
			},
		}
		if _, err := addCampaign(rep, opts, string(mode), cfg); err != nil {
			return nil, err
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: rapilog loses nothing (hypervisor survives and drains);",
		"native-async loses the commits acked since the last background force.")
	return rep, nil
}

// runA3: the sizing rule ablation — safe bound vs deliberately oversized
// buffers on a typical PSU.
func runA3(opts Options) (*Report, error) {
	opts.applyDefaults()
	trials := 20
	if opts.Quick {
		trials = 3
	}
	type cap struct {
		label string
		cfg   core.Config
	}
	caps := []cap{
		{"safe-bound", core.Config{}},
		{"8MiB-unsafe", core.Config{MaxBuffer: 8 << 20, Unsafe: true}},
		{"32MiB-unsafe", core.Config{MaxBuffer: 32 << 20, Unsafe: true}},
	}
	rep := campaignReport("a3", "ablation: violating the buffer sizing rule",
		"this reproduction's ablation of the safety argument")
	for _, c := range caps {
		// A slow drive makes the drain lose the race against a
		// commit-heavy workload, so the buffer genuinely fills — the
		// regime the sizing rule exists for.
		cfg := faultinject.CampaignConfig{
			Rig: rig.Config{
				Seed: opts.Seed, Mode: rig.RapiLog,
				PSU:     power.PSUMeasured,
				HDD:     disk.HDDConfig{RPM: 3600, SectorsPerTrack: 250},
				RapiLog: c.cfg,
			},
			Fault:          faultinject.PowerCut,
			Trials:         trials,
			Clients:        16,
			InjectAfterMin: 1500 * time.Millisecond,
			InjectAfterMax: 2500 * time.Millisecond,
			NewWorkload:    func() workload.Workload { return &workload.Stress{ValueSize: 6000} },
		}
		if _, err := addCampaign(rep, opts, c.label, cfg); err != nil {
			return nil, err
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: the safe bound never loses; oversized buffers lose exactly when",
		"the emergency dump cannot finish inside the hold-up window.")
	return rep, nil
}

// runA8: media-fault campaigns in rapilog mode. Transient write-error
// windows and latency storms must lose nothing and leave no backlog once
// the fault clears; a permanent grown-defect range must push the logger
// into degraded pass-through — slower, but still zero loss.
func runA8(opts Options) (*Report, error) {
	opts.applyDefaults()
	transientTrials, stormTrials, permTrials := 200, 50, 5
	if opts.Quick {
		transientTrials, stormTrials, permTrials = 3, 2, 1
	}
	cases := []struct {
		label     string
		fault     faultinject.Fault
		trials    int
		permanent bool
	}{
		{"transient-errors", faultinject.DiskError, transientTrials, false},
		{"latency-storm", faultinject.LatencyStorm, stormTrials, false},
		{"permanent-defect", faultinject.DiskError, permTrials, true},
	}
	rep := campaignReport("a8", "media faults under load: retry, degrade, lose nothing",
		"this reproduction's media-fault extension of the safety argument")
	for _, c := range cases {
		cfg := faultinject.CampaignConfig{
			Rig:            rig.Config{Seed: opts.Seed, Mode: rig.RapiLog},
			Fault:          c.fault,
			Trials:         c.trials,
			PermanentFault: c.permanent,
		}
		sum, err := addCampaign(rep, opts, c.label, cfg)
		if err != nil {
			return nil, err
		}
		var stranded int64
		for _, tr := range sum.Trials {
			stranded = max(stranded, tr.BufferedAfter)
		}
		rep.Values[c.label+"/degraded_trials"] = float64(sum.DegradedTrials)
		rep.Values[c.label+"/max_stranded_bytes"] = float64(stranded)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: transient windows and storms ride out on drain retries — zero loss,",
		"zero stranded bytes, no lingering degradation; a permanent defect degrades every",
		"trial to synchronous pass-through yet still loses nothing (acks wait for media).")
	return rep, nil
}
