package disk

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Calibration constants of the flash-device model (2013-era MLC SATA
// flash). A2 and E10 compare this one device against the HDD; nothing varies
// the device itself.
const (
	ssdCapacity = 1 << 22 // sectors (2 GiB at 512 B)
	// ssdPageSectors is the program/read unit (4 KiB pages).
	ssdPageSectors = 8
	// ssdReadLatency / ssdProgramLatency are per-page.
	ssdReadLatency    = 60 * time.Microsecond
	ssdProgramLatency = 250 * time.Microsecond
	// ssdChannels bounds internal parallelism.
	ssdChannels = 4
	// ssdBandwidth caps the bus in bytes/s (250 MB/s).
	ssdBandwidth = 250e6
)

// SSDConfig parameterises the flash-device model.
type SSDConfig struct {
	Name string // default "ssd"
	// Reg, when set, registers the device's instruments centrally.
	Reg *obs.Registry
}

// SSD models a flash device with power-loss capacitors ("enterprise"
// flash): per-page program/read latency and channel parallelism, nothing
// volatile. There is no seek or rotation; the RapiLog gains shrink on flash
// but the buffer-ack path is still faster than a page program, so the effect
// survives (ablation A2).
type SSD struct {
	cfg      SSDConfig
	s        *sim.Sim
	med      *media
	stats    *Stats
	powered  bool
	channels *sim.Resource
	epoch    int // bumped on power failure; a program in flight stops at its prefix
}

// NewSSD creates a powered-on SSD.
func NewSSD(s *sim.Sim, cfg SSDConfig) *SSD {
	if cfg.Name == "" {
		cfg.Name = "ssd"
	}
	return &SSD{
		cfg:      cfg,
		s:        s,
		med:      newMedia(),
		stats:    newStats(cfg.Reg, cfg.Name),
		powered:  true,
		channels: s.NewResource(cfg.Name+".chan", ssdChannels),
	}
}

// Sectors implements Device.
func (d *SSD) Sectors() int64 { return ssdCapacity }

// Stats implements Drive.
func (d *SSD) Stats() *Stats { return d.stats }

// WorstCaseWrite implements Drive: a program round still in flight on the
// pages the write lands on, then its bus transfer and its rounds (an
// unaligned start touches one page more).
func (d *SSD) WorstCaseWrite(n int64) time.Duration {
	nsec := sectorsOf(n)
	rounds := ((nsec+ssdPageSectors-1)/ssdPageSectors + ssdChannels) / ssdChannels
	return d.busTime(int(nsec)) + time.Duration(1+rounds)*ssdProgramLatency
}

func (d *SSD) pageOf(lba int64) int64 { return lba / ssdPageSectors }

func (d *SSD) pages(lba int64, nsec int) int {
	if nsec == 0 {
		return 0
	}
	first := d.pageOf(lba)
	last := d.pageOf(lba + int64(nsec) - 1)
	return int(last - first + 1)
}

func (d *SSD) busTime(nsec int) time.Duration {
	bytes := float64(nsec * SectorSize)
	return 8*time.Microsecond + time.Duration(bytes/ssdBandwidth*float64(time.Second))
}

// Read implements Device.
func (d *SSD) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	if !d.powered {
		return 0, ErrNoPower
	}
	nsec := len(dst) / SectorSize
	if err := checkRange(lba, len(dst), d.Sectors()); err != nil {
		return 0, err
	}
	start := p.Now()
	d.stats.Reads.Inc()
	d.channels.Acquire(p, 1)
	func() {
		defer d.channels.Release(1)
		p.Sleep(time.Duration(d.pages(lba, nsec))*ssdReadLatency + d.busTime(nsec))
	}()
	d.med.readSectors(dst, lba)
	d.stats.SectorsRead.Add(int64(nsec))
	d.stats.ReadLatency.Observe(p.Now().Sub(start))
	return len(dst), nil
}

// Write implements Device. Writes are torn at page granularity on kill.
func (d *SSD) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	return d.write(p, lba, data, false)
}

// writeFirst implements Drive: the write goes on the drive's urgent queue,
// which no queued request is ahead of.
func (d *SSD) writeFirst(p *sim.Proc, lba int64, data []byte) error {
	return d.write(p, lba, data, true)
}

func (d *SSD) write(p *sim.Proc, lba int64, data []byte, urgent bool) error {
	if !d.powered {
		return ErrNoPower
	}
	nsec := len(data) / SectorSize
	if err := checkRange(lba, len(data), d.Sectors()); err != nil {
		return err
	}
	start := p.Now()
	d.stats.Writes.Inc()
	d.programPages(p, lba, data, nsec, urgent)
	d.stats.WriteLatency.Observe(p.Now().Sub(start))
	return nil
}

// programPages streams data to flash. Large requests stripe across the
// device's channels: up to Channels pages program concurrently per
// ProgramLatency, which is what lets a single sequential stream (like the
// RapiLog emergency dump) reach the advertised bandwidth. Each page commit
// is atomic, so a kill tears the request at a page-group boundary. An
// urgent request takes no channel slot.
func (d *SSD) programPages(p *sim.Proc, lba int64, data []byte, nsec int, urgent bool) {
	epoch := d.epoch
	done := false
	defer func() {
		if !done {
			d.stats.TornWrites.Inc()
		}
	}()
	if !urgent {
		d.channels.Acquire(p, 1)
		defer d.channels.Release(1)
	}
	p.Sleep(d.busTime(nsec))
	for off := 0; off < nsec; {
		if !d.powered || d.epoch != epoch {
			return // power died mid-program: the prefix is all there is
		}
		// One program round: up to Channels pages in parallel. The first
		// chunk may be a partial page (unaligned start).
		group := 0
		start := off
		for ch := 0; ch < ssdChannels && off < nsec; ch++ {
			chunk := ssdPageSectors - int((lba+int64(off))%ssdPageSectors)
			if off+chunk > nsec {
				chunk = nsec - off
			}
			off += chunk
			group += chunk
		}
		p.Sleep(ssdProgramLatency)
		if !d.powered || d.epoch != epoch {
			return
		}
		d.med.writeSectors(lba+int64(start), data[start*SectorSize:(start+group)*SectorSize])
		d.stats.SectorsWritten.Add(int64(group))
	}
	done = true
}

// Flush implements Drive: nothing is volatile, so there is nothing to wait
// for.
func (d *SSD) Flush(p *sim.Proc) error {
	if !d.powered {
		return ErrNoPower
	}
	return nil
}

// PowerFail implements PowerAware.
func (d *SSD) PowerFail() {
	d.powered = false
	d.epoch++
}

// PowerOn implements PowerAware.
func (d *SSD) PowerOn(*sim.Domain) {
	if d.powered {
		return
	}
	d.powered = true
	d.channels = d.s.NewResource(d.cfg.Name+".chan", ssdChannels)
}
