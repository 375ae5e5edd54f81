package disk

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Calibration constants of the memory-backed device.
const (
	// memLatency is the fixed per-request service time.
	memLatency = 5 * time.Microsecond
	// memBandwidth in bytes/s (2 GB/s).
	memBandwidth = 2e9
)

// MemConfig parameterises the memory-backed device.
type MemConfig struct {
	Name string
	// Reg, when set, registers the device's instruments centrally.
	Reg      *obs.Registry
	Capacity int64 // sectors; default 2^20
	// Persistent selects NVRAM semantics (contents survive power failure);
	// false models a plain RAM disk that loses everything.
	Persistent bool
}

func (c *MemConfig) applyDefaults() {
	if c.Name == "" {
		c.Name = "mem"
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 20
	}
}

// Mem is a memory-backed block device: a RAM disk (volatile) or NVRAM
// (persistent). It is the "specialised hardware" alternative the paper
// positions RapiLog against, and a convenient fast substrate in tests.
type Mem struct {
	cfg     MemConfig
	s       *sim.Sim
	med     *media
	stats   *Stats
	powered bool
}

// NewMem creates a powered-on memory device.
func NewMem(s *sim.Sim, cfg MemConfig) *Mem {
	cfg.applyDefaults()
	return &Mem{cfg: cfg, s: s, med: newMedia(), stats: newStats(cfg.Reg, cfg.Name), powered: true}
}

// Sectors implements Device.
func (d *Mem) Sectors() int64 { return d.cfg.Capacity }

// Stats implements Drive.
func (d *Mem) Stats() *Stats { return d.stats }

// WorstCaseWrite implements Drive: requests never wait for one another.
func (d *Mem) WorstCaseWrite(n int64) time.Duration { return d.xferTime(int(sectorsOf(n))) }

// writeFirst implements Drive: there is no queue to jump.
func (d *Mem) writeFirst(p *sim.Proc, lba int64, data []byte) error {
	return d.Write(p, lba, data, true)
}

func (d *Mem) xferTime(nsec int) time.Duration {
	bytes := float64(nsec * SectorSize)
	return memLatency + time.Duration(bytes/memBandwidth*float64(time.Second))
}

// Read implements Device.
func (d *Mem) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	if !d.powered {
		return 0, ErrNoPower
	}
	nsec := len(dst) / SectorSize
	if err := checkRange(lba, len(dst), d.Sectors()); err != nil {
		return 0, err
	}
	start := p.Now()
	d.stats.Reads.Inc()
	p.Sleep(d.xferTime(nsec))
	d.stats.SectorsRead.Add(int64(nsec))
	d.stats.ReadLatency.Observe(p.Now().Sub(start))
	d.med.readSectors(dst, lba)
	return len(dst), nil
}

// Write implements Device. Memory writes are atomic per request (no
// tearing): the transfer completes before the contents become visible.
func (d *Mem) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if !d.powered {
		return ErrNoPower
	}
	nsec := len(data) / SectorSize
	if err := checkRange(lba, len(data), d.Sectors()); err != nil {
		return err
	}
	start := p.Now()
	d.stats.Writes.Inc()
	p.Sleep(d.xferTime(nsec))
	d.med.writeSectors(lba, data)
	d.stats.SectorsWritten.Add(int64(nsec))
	d.stats.WriteLatency.Observe(p.Now().Sub(start))
	return nil
}

// Flush implements Drive (no volatile cache; a no-op).
func (d *Mem) Flush(p *sim.Proc) error {
	if !d.powered {
		return ErrNoPower
	}
	return nil
}

// PowerFail implements PowerAware: a volatile RAM disk loses its contents.
func (d *Mem) PowerFail() {
	d.powered = false
	if !d.cfg.Persistent {
		d.med = newMedia()
	}
}

// PowerOn implements PowerAware.
func (d *Mem) PowerOn(_ *sim.Domain) { d.powered = true }
