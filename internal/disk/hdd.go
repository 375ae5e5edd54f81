package disk

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Calibration constants of the rotating-disk model: the drive's geometry,
// its seek curve and its host interface. Experiments vary the spindle (RPM,
// SectorsPerTrack) and the cache, never these.
const (
	hddCylinders    = 8192
	hddHeads        = 4                      // tracks per cylinder
	hddSeekMin      = 500 * time.Microsecond // track-to-track
	hddSeekMax      = 8 * time.Millisecond   // full stroke
	hddBusBandwidth = 300e6                  // bytes/s host<->drive
	// hddHoldSectors (128 KiB) is the longest piece of a request the arm
	// streams before a dump-zone write queued behind it gets the arm, and
	// the longest run the write cache drains.
	hddHoldSectors = 256
)

// HDDConfig parameterises the rotating-disk model.
type HDDConfig struct {
	Name string
	// Reg, when set, registers the device's instruments centrally.
	Reg             *obs.Registry
	SectorsPerTrack int // default 500
	RPM             int // default 7200
	// WriteCache enables the volatile on-drive cache: non-FUA writes are
	// absorbed at bus speed and drained to media in the background. The
	// cache is lost on power failure — this is the unsafe fast path real
	// drives ship with and databases must defeat with FUA/flush.
	WriteCache   bool
	CacheSectors int // cache capacity; default 16384 (8 MiB at 512 B)
	ChunkSectors int // media commit granularity; default 8 (4 KiB)
}

func (c *HDDConfig) applyDefaults() {
	if c.Name == "" {
		c.Name = "hdd"
	}
	if c.SectorsPerTrack == 0 {
		c.SectorsPerTrack = 500
	}
	if c.RPM == 0 {
		c.RPM = 7200
	}
	if c.CacheSectors == 0 {
		c.CacheSectors = 16384
	}
	if c.ChunkSectors == 0 {
		c.ChunkSectors = 8
	}
}

// HDD is a mechanically modelled rotating disk: seek time scales with the
// square root of cylinder distance, rotational delay follows a continuously
// spinning platter, and transfers stream at track bandwidth. Media commits
// happen in ChunkSectors units, so a process killed mid-write (guest crash,
// power loss) leaves a torn request: the committed prefix survives.
type HDD struct {
	cfg     HDDConfig
	s       *sim.Sim
	med     *media
	stats   *Stats
	powered bool

	arm       *sim.Resource // one unit: serialises head usage
	dumps     int           // dump-zone writes queued for the arm
	curCyl    int
	rotPeriod time.Duration
	perSector time.Duration

	// Volatile write cache.
	cache      map[int64]*cacheEntry
	cacheGen   uint64
	epoch      int // bumped on power failure; stale drainers retire
	cacheSpace *sim.Resource
	dirtySig   *sim.Signal // new dirty data for the drainer
	drainedSig *sim.Signal // batch reached media, for Flush waiters
	drainPos   int64       // elevator sweep position
}

type cacheEntry struct {
	data []byte
	gen  uint64
}

// NewHDD creates a powered-on HDD and spawns its cache drainer (if the
// write cache is enabled) into dom.
func NewHDD(s *sim.Sim, dom *sim.Domain, cfg HDDConfig) *HDD {
	cfg.applyDefaults()
	d := &HDD{
		cfg:       cfg,
		s:         s,
		med:       newMedia(),
		stats:     newStats(cfg.Reg, cfg.Name),
		powered:   true,
		arm:       s.NewResource(cfg.Name+".arm", 1),
		rotPeriod: time.Duration(float64(time.Minute) / float64(cfg.RPM)),
	}
	d.perSector = d.rotPeriod / time.Duration(cfg.SectorsPerTrack)
	d.resetCache()
	if cfg.WriteCache {
		d.spawnDrainer(dom)
	}
	return d
}

func (d *HDD) resetCache() {
	d.cache = make(map[int64]*cacheEntry)
	d.cacheSpace = d.s.NewResource(d.cfg.Name+".cache", int64(d.cfg.CacheSectors))
	d.dirtySig = d.s.NewSignal(d.cfg.Name + ".dirty")
	d.drainedSig = d.s.NewSignal(d.cfg.Name + ".drained")
}

// Sectors implements Device.
func (d *HDD) Sectors() int64 {
	return hddCylinders * d.sectorsPerCyl()
}

// Stats implements Drive.
func (d *HDD) Stats() *Stats { return d.stats }

// WorstCaseWrite implements Drive: the longest piece an ordinary request
// holds the arm for, then the write's own stream.
func (d *HDD) WorstCaseWrite(n int64) time.Duration {
	return d.worstStream(hddHoldSectors) + d.worstStream(sectorsOf(n))
}

// worstStream is the longest one arm hold streaming nsec sectors takes from
// any head position: a full-stroke seek, a rotation, the transfer, and a
// track-to-track seek per cylinder boundary crossed (mechanicalIO's costs).
func (d *HDD) worstStream(nsec int64) time.Duration {
	crossings := (nsec + d.sectorsPerCyl() - 1) / d.sectorsPerCyl()
	return hddSeekMax + d.rotPeriod + time.Duration(nsec)*d.perSector + time.Duration(crossings)*hddSeekMin
}

func (d *HDD) sectorsPerCyl() int64 { return hddHeads * int64(d.cfg.SectorsPerTrack) }

func (d *HDD) cylOf(lba int64) int { return int(lba / d.sectorsPerCyl()) }

// seekTime models seek latency as min + (max-min)·sqrt(distance/full).
func (d *HDD) seekTime(from, to int) time.Duration {
	if from == to {
		return 0
	}
	dist := math.Abs(float64(to - from))
	frac := math.Sqrt(dist / float64(hddCylinders-1))
	return hddSeekMin + time.Duration(frac*float64(hddSeekMax-hddSeekMin))
}

// rotationalDelay returns the wait for the target in-track sector to pass
// under the head, given the continuously spinning platter.
func (d *HDD) rotationalDelay(lba int64) time.Duration {
	target := float64(lba%int64(d.cfg.SectorsPerTrack)) / float64(d.cfg.SectorsPerTrack)
	phase := float64(d.s.Now()%sim.Time(d.rotPeriod)) / float64(d.rotPeriod)
	frac := target - phase
	if frac < 0 {
		frac++
	}
	return time.Duration(frac * float64(d.rotPeriod))
}

// mechanicalIO takes the arm and performs a media access: position, then
// stream chunk by chunk, committing each chunk (for writes) as it passes
// under the head. It returns the bytes transferred: all of buf, or the
// prefix that passed before power died. A kill mid-stream leaves the
// committed prefix — a torn write — and frees the arm. A dump-zone write
// (first) jumps the queue; any other yields to one every hddHoldSectors.
func (d *HDD) mechanicalIO(p *sim.Proc, lba int64, buf []byte, write, first bool) int {
	if first {
		d.dumps++
		d.arm.AcquireFirst(p, 1)
		d.dumps--
	} else {
		d.arm.Acquire(p, 1)
	}
	held := true
	defer func() {
		if held {
			d.arm.Release(1)
		}
	}()
	epoch := d.epoch
	done := false
	if write {
		defer func() {
			if !done {
				d.stats.TornWrites.Inc()
			}
		}()
	}

	d.position(p, lba)
	nsec := len(buf) / SectorSize
	for off, piece := 0, 0; off < nsec; {
		chunk := min(d.cfg.ChunkSectors, nsec-off)
		start := lba + int64(off)
		if d.dumps > 0 && piece > 0 && piece+chunk > hddHoldSectors {
			d.arm.Release(1)
			held = false
			d.arm.AcquireFirst(p, 1)
			held = true
			d.position(p, start)
			piece = 0
		}
		if !d.powered || d.epoch != epoch {
			return off * SectorSize // power died mid-transfer: the prefix is all there is
		}
		// Crossing into a new cylinder costs a track-to-track seek.
		if cyl := d.cylOf(start); cyl != d.curCyl {
			p.Sleep(hddSeekMin)
			d.curCyl = cyl
		}
		p.Sleep(time.Duration(chunk) * d.perSector)
		part := buf[off*SectorSize : (off+chunk)*SectorSize]
		if write {
			d.med.writeSectors(start, part)
			d.stats.SectorsWritten.Add(int64(chunk))
		} else {
			d.med.readSectors(part, start)
			d.stats.SectorsRead.Add(int64(chunk))
		}
		off += chunk
		piece += chunk
	}
	done = true
	return len(buf)
}

// position seeks the head to lba's cylinder and waits for lba to come round.
func (d *HDD) position(p *sim.Proc, lba int64) {
	if cyl := d.cylOf(lba); cyl != d.curCyl {
		p.Sleep(d.seekTime(d.curCyl, cyl))
		d.curCyl = cyl
	}
	p.Sleep(d.rotationalDelay(lba))
}

// Read implements Device: cached sectors overlay media contents.
func (d *HDD) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	if !d.powered {
		return 0, ErrNoPower
	}
	if err := checkRange(lba, len(dst), d.Sectors()); err != nil {
		return 0, err
	}
	start := p.Now()
	d.stats.Reads.Inc()
	nsec := len(dst) / SectorSize

	// Fast path: every sector is in the cache — bus transfer only.
	allCached := d.cfg.WriteCache
	if allCached {
		for i := 0; i < nsec; i++ {
			if _, ok := d.cache[lba+int64(i)]; !ok {
				allCached = false
				break
			}
		}
	}
	n := len(dst)
	if allCached && nsec > 0 {
		// The cache's contents at the request: the drainer may retire
		// these sectors while the bus transfers them.
		for i := 0; i < nsec; i++ {
			copy(dst[i*SectorSize:], d.cache[lba+int64(i)].data)
		}
		p.Sleep(d.busTime(nsec))
	} else {
		n = d.mechanicalIO(p, lba, dst, false, false)
		// Overlay any sectors that are newer in the cache.
		for i := 0; i < n/SectorSize; i++ {
			if e, ok := d.cache[lba+int64(i)]; ok {
				copy(dst[i*SectorSize:], e.data)
			}
		}
	}
	d.stats.ReadLatency.Observe(p.Now().Sub(start))
	return n, nil
}

func (d *HDD) busTime(nsec int) time.Duration {
	bytes := float64(nsec * SectorSize)
	return 10*time.Microsecond + time.Duration(bytes/hddBusBandwidth*float64(time.Second))
}

// Write implements Device.
func (d *HDD) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	return d.write(p, lba, data, fua, false)
}

// writeFirst implements Drive.
func (d *HDD) writeFirst(p *sim.Proc, lba int64, data []byte) error {
	return d.write(p, lba, data, true, true)
}

func (d *HDD) write(p *sim.Proc, lba int64, data []byte, fua, first bool) error {
	if !d.powered {
		return ErrNoPower
	}
	nsec := len(data) / SectorSize
	if err := checkRange(lba, len(data), d.Sectors()); err != nil {
		return err
	}
	start := p.Now()
	d.stats.Writes.Inc()

	// Requests larger than the whole cache bypass it (no admission could
	// ever succeed); they take the direct media path below.
	if d.cfg.WriteCache && !fua && nsec <= d.cfg.CacheSectors {
		// Absorb into the volatile cache at bus speed. Admission must be
		// atomic with the occupancy count: counting, then blocking in
		// Acquire, would let the drainer retire overlapping sectors in
		// between and corrupt the accounting — so recount after every
		// wait until the claim succeeds in one step.
		for {
			newSectors := int64(0)
			for i := 0; i < nsec; i++ {
				if _, ok := d.cache[lba+int64(i)]; !ok {
					newSectors++
				}
			}
			if d.cacheSpace.TryAcquire(p, newSectors) {
				break
			}
			d.dirtySig.Broadcast() // nudge the drainer
			d.drainedSig.Wait(p)
		}
		d.cacheGen++
		for i := 0; i < nsec; i++ {
			sec := make([]byte, SectorSize)
			copy(sec, data[i*SectorSize:(i+1)*SectorSize])
			d.cache[lba+int64(i)] = &cacheEntry{data: sec, gen: d.cacheGen}
		}
		p.Sleep(d.busTime(nsec))
		d.stats.CacheHits.Inc()
		d.dirtySig.Broadcast()
		d.stats.WriteLatency.Observe(p.Now().Sub(start))
		return nil
	}

	// Direct media path. Supersede any cached copies of these sectors so a
	// later drain cannot overwrite this (newer) data.
	if d.cfg.WriteCache {
		released := int64(0)
		for i := 0; i < nsec; i++ {
			if _, ok := d.cache[lba+int64(i)]; ok {
				delete(d.cache, lba+int64(i))
				released++
			}
		}
		d.cacheSpace.Release(released)
	}
	d.mechanicalIO(p, lba, data, true, first)
	d.stats.WriteLatency.Observe(p.Now().Sub(start))
	return nil
}

// Flush implements Drive: block until the volatile cache is empty.
func (d *HDD) Flush(p *sim.Proc) error {
	if !d.powered {
		return ErrNoPower
	}
	if !d.cfg.WriteCache {
		return nil
	}
	d.dirtySig.Broadcast() // nudge the drainer
	for len(d.cache) > 0 {
		d.drainedSig.Wait(p)
	}
	return nil
}

// spawnDrainer starts the background cache writeback process: an elevator
// sweep that coalesces contiguous dirty runs into streaming media writes.
func (d *HDD) spawnDrainer(dom *sim.Domain) {
	epoch := d.epoch
	d.s.Spawn(dom, d.cfg.Name+".drain", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			if d.epoch != epoch {
				return // a power cycle happened; a fresh drainer owns the cache
			}
			if len(d.cache) == 0 {
				d.dirtySig.Wait(p)
				continue
			}
			lbas, snap := d.nextDrainRun()
			if len(lbas) == 0 {
				continue
			}
			data := make([]byte, 0, len(lbas)*SectorSize)
			for _, lba := range lbas {
				data = append(data, snap[lba].data...)
			}
			d.mechanicalIO(p, lbas[0], data, true, false)
			// Retire sectors not rewritten while we were draining.
			released := int64(0)
			for _, lba := range lbas {
				if cur, ok := d.cache[lba]; ok && cur.gen == snap[lba].gen {
					delete(d.cache, lba)
					released++
				}
			}
			d.cacheSpace.Release(released)
			d.drainedSig.Broadcast()
		}
	})
}

// nextDrainRun picks the next contiguous run of dirty sectors in elevator
// order (ascending LBA, wrapping) and snapshots their entries.
func (d *HDD) nextDrainRun() ([]int64, map[int64]*cacheEntry) {
	if len(d.cache) == 0 {
		return nil, nil
	}
	all := make([]int64, 0, len(d.cache))
	for lba := range d.cache {
		all = append(all, lba)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// First dirty LBA at or after the sweep position, else wrap to lowest.
	idx := sort.Search(len(all), func(i int) bool { return all[i] >= d.drainPos })
	if idx == len(all) {
		idx = 0
	}
	run := []int64{all[idx]}
	for i := idx + 1; i < len(all) && len(run) < hddHoldSectors; i++ {
		if all[i] != run[len(run)-1]+1 {
			break
		}
		run = append(run, all[i])
	}
	snap := make(map[int64]*cacheEntry, len(run))
	for _, lba := range run {
		snap[lba] = d.cache[lba]
	}
	d.drainPos = run[len(run)-1] + 1
	return run, snap
}

// PowerFail implements PowerAware: the volatile cache vanishes.
func (d *HDD) PowerFail() {
	d.powered = false
	d.cache = nil
	d.dumps = 0 // a dump still queued dies with the machine
	d.epoch++
}

// PowerOn implements PowerAware: restore service with an empty cache and a
// fresh drainer in dom.
func (d *HDD) PowerOn(dom *sim.Domain) {
	if d.powered {
		return
	}
	d.powered = true
	d.curCyl = 0
	d.resetCache()
	if d.cfg.WriteCache {
		d.spawnDrainer(dom)
	}
}
