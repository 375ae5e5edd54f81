package bench

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
)

// runE10: the raw-device microbenchmark that motivates the paper. Small
// synchronous writes to a rotating disk cost a rotation; sequential
// streaming gets track bandwidth; a volatile write cache is fast but
// (as every other experiment here shows) unsafe.
func runE10(opts Options) (*Report, error) {
	opts.applyDefaults()
	ops := 400
	if opts.Quick {
		ops = 60
	}
	table := metrics.NewTable("device", "pattern", "mean latency", "IOPS", "MB/s")
	rep := newReport("e10", "raw device write microbenchmark",
		"motivation figure: why sync log writes are slow", table)

	type devCase struct {
		name string
		mk   func(s *sim.Sim, hw *sim.Domain) disk.Drive
	}
	cases := []devCase{
		{"hdd", func(s *sim.Sim, hw *sim.Domain) disk.Drive {
			return disk.NewHDD(s, hw, disk.HDDConfig{})
		}},
		{"hdd+cache", func(s *sim.Sim, hw *sim.Domain) disk.Drive {
			return disk.NewHDD(s, hw, disk.HDDConfig{Name: "hddc", WriteCache: true})
		}},
		{"ssd", func(s *sim.Sim, hw *sim.Domain) disk.Drive {
			return disk.NewSSD(s, disk.SSDConfig{})
		}},
	}
	patterns := []string{"rand-sync-4k", "seq-sync-4k", "seq-stream-256k"}

	for _, dc := range cases {
		for _, pat := range patterns {
			mean, iops, mbs, err := microRun(opts.Seed, dc.mk, pat, ops)
			if err != nil {
				return nil, fmt.Errorf("e10 %s/%s: %w", dc.name, pat, err)
			}
			table.AddRow(dc.name, pat,
				fmt.Sprint(mean.Round(time.Microsecond)),
				fmt.Sprintf("%.0f", iops),
				fmt.Sprintf("%.1f", mbs))
			rep.Values[dc.name+"/"+pat+"/iops"] = iops
			rep.Values[dc.name+"/"+pat+"/mean_us"] = float64(mean.Microseconds())
			opts.progressf("e10: %-10s %-16s %8.0f IOPS", dc.name, pat, iops)
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: random sync 4k on HDD ≈ seek+half-rotation (≈100 IOPS);",
		"sequential streaming ≈ track bandwidth; the cache hides latency — volatilely.")
	return rep, nil
}

func microRun(seed int64, mk func(*sim.Sim, *sim.Domain) disk.Drive, pattern string, ops int) (time.Duration, float64, float64, error) {
	s := sim.New(seed)
	defer s.Close()
	m := power.NewMachine(s, "m", 2, power.PSUMeasured)
	dev := mk(s, m.HardwareDomain())
	m.AttachDevice(dev)

	// A pattern is its write size and count, where write i goes, and
	// whether every write is flushed (else only the last).
	size, n, flushEach := 4096, ops, true
	lba := func(i int) int64 { return int64(i * 8) }
	switch pattern {
	case "rand-sync-4k":
		lba = func(int) int64 { return s.Rand().Int63n(dev.Sectors() - 8) }
	case "seq-sync-4k":
	case "seq-stream-256k":
		size, n, flushEach = 256<<10, ops/8+1, false
		lba = func(i int) int64 { return int64(i * size / disk.SectorSize) }
	default:
		return 0, 0, 0, fmt.Errorf("unknown pattern %q", pattern)
	}
	var mean time.Duration
	var iops, mbs float64
	var runErr error
	done := s.NewEvent("done")
	s.Spawn(nil, "io", func(p *sim.Proc) {
		defer done.Fire()
		hist := metrics.NewHistogram("lat")
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < n && runErr == nil; i++ {
			t0 := p.Now()
			if runErr = dev.Write(p, lba(i), buf, false); runErr == nil && flushEach {
				runErr = dev.Flush(p)
			}
			hist.Observe(p.Now().Sub(t0))
		}
		if runErr == nil && !flushEach {
			runErr = dev.Flush(p)
		}
		elapsed := p.Now().Sub(start)
		mean = hist.Mean()
		if elapsed > 0 {
			iops = float64(hist.Count()) / elapsed.Seconds()
			mbs = float64(hist.Count()) * float64(size) / elapsed.Seconds() / 1e6
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		return 0, 0, 0, err
	}
	return mean, iops, mbs, runErr
}
