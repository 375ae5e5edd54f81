// Package disk models block storage devices on the simulation's virtual
// clock: a mechanically modelled rotating disk (HDD), a flash device (SSD),
// and a RAM-backed device, plus Partition views over sub-ranges.
//
// The models capture exactly the properties the RapiLog argument depends on:
//
//   - a synchronous small write to a rotating disk costs a seek plus about
//     half a rotation — milliseconds;
//   - sequential streaming achieves track bandwidth — tens of MB/s;
//   - volatile write caches make writes fast and unsafe: their contents are
//     lost on power failure;
//   - a write in flight when power dies is torn at sector granularity — the
//     prefix is on the platter, the rest is gone.
//
// All methods that perform I/O take a *sim.Proc and block the calling
// process for the modelled service time. Media contents survive power
// failure; caches and in-flight requests do not.
package disk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Common device errors.
var (
	ErrOutOfRange = errors.New("disk: access beyond device extent")
	ErrMisaligned = errors.New("disk: length not a multiple of the sector size")
	ErrNoPower    = errors.New("disk: device is powered off")
	// ErrIO is a media-level I/O error: the request failed but the device
	// is still there and a retry may succeed (or keep failing, for a grown
	// defect — real controllers cannot tell the caller which).
	ErrIO = errors.New("disk: I/O error")
)

// IsTransient reports whether err is a media fault worth retrying (ErrIO).
// Power loss, range and alignment errors are not: retrying a dead machine
// or a bad request can never succeed.
func IsTransient(err error) bool { return errors.Is(err, ErrIO) }

// Device is a block device on virtual time. Offsets and lengths are in
// sectors of SectorSize bytes; data lengths must be multiples of it.
type Device interface {
	// Sectors returns the device capacity in sectors.
	Sectors() int64
	// Read fills dst, a whole number of sectors, from lba on, blocking p
	// for the modelled service time, and returns the bytes it filled. dst
	// is the caller's: no device keeps it past the call. A read that power
	// cuts short mid-transfer fills a prefix, n < len(dst), with no error.
	Read(p *sim.Proc, lba int64, dst []byte) (n int, err error)
	// Write stores data at lba, blocking p for the modelled service time.
	// With fua set, the write bypasses any volatile cache and is on media
	// when Write returns; otherwise it may be cached.
	Write(p *sim.Proc, lba int64, data []byte, fua bool) error
}

// Drive is a physical device model (HDD, SSD, Mem): a Device plus the
// cache barrier and what only real media can answer. Wrappers and
// partitions forward I/O only; whoever needs the rest asks the drive
// underneath.
type Drive interface {
	Device
	// Flush blocks p until all cached writes are on media.
	Flush(p *sim.Proc) error
	// WorstCaseWrite returns the longest a dump-zone write of n bytes can
	// take to be durable from any state the drive's other requests leave
	// it in: RapiLog's buffer-sizing rule asks it.
	WorstCaseWrite(n int64) time.Duration
	// Stats returns the drive's counters (live; not a copy).
	Stats() *Stats
	// writeFirst is a FUA Write served ahead of every queued request.
	writeFirst(p *sim.Proc, lba int64, data []byte) error
}

// sectorsOf is the whole sectors n bytes occupy.
func sectorsOf(n int64) int64 { return (n + SectorSize - 1) / SectorSize }

// PowerAware devices react to machine power transitions. PowerFail drops
// volatile state immediately; PowerOn restores service, spawning any
// background machinery into dom.
type PowerAware interface {
	PowerFail()
	PowerOn(dom *sim.Domain)
}

// Stats aggregates device activity.
type Stats struct {
	Reads          *metrics.Counter
	Writes         *metrics.Counter
	SectorsRead    *metrics.Counter
	SectorsWritten *metrics.Counter
	CacheHits      *metrics.Counter // writes absorbed by the volatile cache
	ReadLatency    *metrics.Histogram
	WriteLatency   *metrics.Histogram
	TornWrites     *metrics.Counter // requests only partially on media at power fail
}

// newStats creates the device's instruments through reg (nil reg creates
// them unregistered), named hierarchically under the device name.
func newStats(reg *obs.Registry, name string) *Stats {
	return &Stats{
		Reads:          reg.Counter(name + ".reads"),
		Writes:         reg.Counter(name + ".writes"),
		SectorsRead:    reg.Counter(name + ".sectors_read"),
		SectorsWritten: reg.Counter(name + ".sectors_written"),
		CacheHits:      reg.Counter(name + ".cache_hits"),
		ReadLatency:    reg.Histogram(name + ".read_latency"),
		WriteLatency:   reg.Histogram(name + ".write_latency"),
		TornWrites:     reg.Counter(name + ".torn_writes"),
	}
}

// SectorSize is the sector size, in bytes, of every modelled device.
const SectorSize = 512

// checkRange validates an access of n bytes at lba against a device
// extent.
func checkRange(lba int64, n int, sectors int64) error {
	if n%SectorSize != 0 {
		return ErrMisaligned
	}
	if nsec := n / SectorSize; lba < 0 || lba+int64(nsec) > sectors {
		return fmt.Errorf("%w: lba=%d nsec=%d cap=%d", ErrOutOfRange, lba, nsec, sectors)
	}
	return nil
}

// slabSectors is the media's allocation unit: aligned runs of 16 sectors
// (8 KiB), so a growing log or a page write allocates once per slab rather
// than once per sector.
const slabSectors = 16

// slab is one aligned run of slabSectors sectors; sectors never written
// read as zero.
type slab [slabSectors * SectorSize]byte

// media is sparse sector storage representing the platter/flash array,
// kept in aligned slabs. Contents survive power failure.
type media struct {
	slabs map[int64]*slab // lba/slabSectors → its slab
}

func newMedia() *media {
	return &media{slabs: make(map[int64]*slab)}
}

// writeSectors persists data (len multiple of SectorSize) starting at lba,
// copying into the slabs that hold those sectors (allocating the ones never
// written); readSectors copies out, so no read aliases the stored bytes.
func (m *media) writeSectors(lba int64, data []byte) {
	for len(data) > 0 {
		sl, ok := m.slabs[lba/slabSectors]
		if !ok {
			sl = new(slab)
			m.slabs[lba/slabSectors] = sl
		}
		n := copy(sl[(lba%slabSectors)*SectorSize:], data)
		data = data[n:]
		lba += int64(n / SectorSize)
	}
}

// readSectors copies the sectors from lba on into dst (len multiple of
// SectorSize); sectors never written read as zero.
func (m *media) readSectors(dst []byte, lba int64) {
	for len(dst) > 0 {
		off := (lba % slabSectors) * SectorSize
		n := min(len(dst), len(slab{})-int(off))
		if sl, ok := m.slabs[lba/slabSectors]; ok {
			copy(dst[:n], sl[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		lba += int64(n / SectorSize)
	}
}

// Partition exposes a contiguous sector range of a drive as a Device.
type Partition struct {
	parent Drive
	name   string
	start  int64
	count  int64
	first  bool // a dump zone: its writes are served ahead of the queue
}

// NewPartition creates a view of count sectors starting at start.
func NewPartition(parent Drive, name string, start, count int64) (*Partition, error) {
	if start < 0 || count < 0 || start+count > parent.Sectors() {
		return nil, fmt.Errorf("%w: partition %q [%d,+%d) on %d-sector device",
			ErrOutOfRange, name, start, count, parent.Sectors())
	}
	return &Partition{parent: parent, name: name, start: start, count: count}, nil
}

// NewDumpZone is NewPartition for an emergency-dump zone. The drive serves
// its writes (always FUA) ahead of every queued request, and the request in
// service yields to them, which is what Drive.WorstCaseWrite answers for.
func NewDumpZone(parent Drive, name string, start, count int64) (*Partition, error) {
	pt, err := NewPartition(parent, name, start, count)
	if err == nil {
		pt.first = true
	}
	return pt, err
}

// Name returns the partition name.
func (pt *Partition) Name() string { return pt.name }

// Sectors returns the partition length in sectors.
func (pt *Partition) Sectors() int64 { return pt.count }

// Parent returns the underlying drive.
func (pt *Partition) Parent() Drive { return pt.parent }

// Read implements Device.
func (pt *Partition) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	if err := checkRange(lba, len(dst), pt.count); err != nil {
		return 0, err
	}
	return pt.parent.Read(p, pt.start+lba, dst)
}

// Write implements Device.
func (pt *Partition) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if err := checkRange(lba, len(data), pt.count); err != nil {
		return err
	}
	if pt.first {
		return pt.parent.writeFirst(p, pt.start+lba, data)
	}
	return pt.parent.Write(p, pt.start+lba, data, fua)
}
