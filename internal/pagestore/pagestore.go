// Package pagestore manages the database's data partition: fixed-size
// pages cached in a buffer pool, checkpoint flushing made torn-write-safe
// by a double-write area (the InnoDB technique), and a small sector-atomic
// control block for the engine's recovery metadata.
//
// The pool is strictly no-steal: pages are written to disk only by a
// checkpoint, never evicted while dirty, so uncommitted in-memory state
// (which the engine keeps out of pages entirely — see internal/engine)
// never reaches the device and recovery needs no undo pass.
//
// Data partition layout, in sectors:
//
//	0                      control block (one sector, atomically written)
//	1                      double-write summary (valid flag, count, CRC)
//	8 .. 8+DW              double-write slots
//	8+DW ..                page frames
package pagestore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Errors.
var (
	ErrBadPage    = errors.New("pagestore: page checksum mismatch")
	ErrBadControl = errors.New("pagestore: control block corrupt")
	ErrNoSpace    = errors.New("pagestore: page id beyond device capacity")
)

const (
	pageMagic   = 0x50474531 // "PGE1"
	pageHdrLen  = 24         // magic(4) id(8) lsn(8) crc(4)
	ctrlMagic   = 0x43545231 // "CTR1"
	dwMagic     = 0x44575231 // "DWR1"
	dwHdrSector = 1
	dwSlotBase  = 8
	// dwSlots is the double-write slots per checkpoint batch; their
	// summary (12 + 8·dwSlots bytes) fits the sectors between dwHdrSector
	// and dwSlotBase.
	dwSlots = 256
)

// Config parameterises a Store.
type Config struct {
	PageSize  int // default 8192; multiple of the sector size
	PoolPages int // soft cache bound; default 4096
}

func (c *Config) applyDefaults() {
	if c.PageSize == 0 {
		c.PageSize = 8192
	}
	if c.PoolPages == 0 {
		c.PoolPages = 4096
	}
}

// Page is a cached page frame. The engine reads and mutates Data between
// simulation parks only: after any operation that may block (Get with a
// cache miss), re-fetch the page before touching it, and call MarkDirty in
// the same non-blocking section as the mutation.
type Page struct {
	ID    int64
	LSN   uint64 // engine-maintained recovery hint
	data  []byte
	dirty bool
	ver   uint64 // bumped by MarkDirty; guards checkpoint races
	tick  uint64 // LRU clock
}

// Data returns the page's usable byte area (PageSize − header).
func (pg *Page) Data() []byte { return pg.data }

// Stats counts store activity. Its counters are registered as "pages.*";
// the registry hands a rebuilt store (a new boot of the same engine) the
// same counters, as it does every layer's.
type Stats struct {
	Reads       *metrics.Counter // physical page reads
	Writes      *metrics.Counter // physical page writes (incl. double writes)
	Hits        *metrics.Counter
	Misses      *metrics.Counter
	Evictions   *metrics.Counter
	Checkpoints *metrics.Counter
	DWRestores  *metrics.Counter
}

func newStats(reg *obs.Registry) *Stats {
	return &Stats{
		Reads:       reg.Counter("pages.reads"),
		Writes:      reg.Counter("pages.writes"),
		Hits:        reg.Counter("pages.hits"),
		Misses:      reg.Counter("pages.misses"),
		Evictions:   reg.Counter("pages.evictions"),
		Checkpoints: reg.Counter("pages.checkpoints"),
		DWRestores:  reg.Counter("pages.dw_restores"),
	}
}

// Store is the page manager for one data partition.
type Store struct {
	s        *sim.Sim
	dev      disk.Device
	cfg      Config
	pageSec  int
	pageBase int64 // first page-frame sector
	numPages int64
	pool     map[int64]*Page
	// clean counts the pooled pages that are not dirty — the only eviction
	// candidates. Under no-steal with rare checkpoints it is usually zero, and
	// maybeEvict must not walk the pool to find that out.
	clean int
	clock uint64
	stats *Stats
	// maxWritten is the highest page id ever written to the device (−1 if
	// none): pages above it are known fresh and are materialised as zero
	// pages without a device read, like a real engine extending its file.
	maxWritten int64
	// run is the buffer ReadRun reads into, reused by the next call (the
	// index rebuild's extents come one at a time).
	run []byte
}

// Open creates a Store over dev, with its counters in reg (nil: none).
// Existing page contents remain readable (pages are self-validating); a
// fresh device reads as zero pages.
func Open(s *sim.Sim, dev disk.Device, reg *obs.Registry, cfg Config) (*Store, error) {
	cfg.applyDefaults()
	if cfg.PageSize%disk.SectorSize != 0 {
		return nil, fmt.Errorf("pagestore: page size %d not a multiple of sector size %d", cfg.PageSize, disk.SectorSize)
	}
	pageSec := cfg.PageSize / disk.SectorSize
	pageBase := int64(dwSlotBase + dwSlots*pageSec)
	numPages := (dev.Sectors() - pageBase) / int64(pageSec)
	if numPages <= 0 {
		return nil, fmt.Errorf("pagestore: device too small (%d sectors)", dev.Sectors())
	}
	st := &Store{
		s:          s,
		dev:        dev,
		cfg:        cfg,
		pageSec:    pageSec,
		pageBase:   pageBase,
		numPages:   numPages,
		pool:       make(map[int64]*Page),
		stats:      newStats(reg),
		maxWritten: numPages - 1, // conservative: read everything
	}
	// A store kept past its simulation keeps its counters only: the pool,
	// the device chain below it and the run buffer go. Whatever reads a
	// page or the device takes a live process, and none is left.
	s.OnClose(func() { st.pool, st.dev, st.run = nil, nil, nil })
	return st, nil
}

// SetWrittenThrough declares the exact page-write horizon: pages above id
// were never written to the device and will be materialised as zero pages
// without a read. Only recovery code that derives the horizon from durable
// metadata (the control block; a missing one proves no page was ever
// flushed) may call this — lowering it past a written page would resurrect
// stale zeros.
func (st *Store) SetWrittenThrough(id int64) {
	st.maxWritten = id
}

// Stats returns the store's counters.
func (st *Store) Stats() *Stats { return st.stats }

// NumPages returns the page capacity of the partition.
func (st *Store) NumPages() int64 { return st.numPages }

// UsableSize returns the bytes available to the engine per page.
func (st *Store) UsableSize() int { return st.cfg.PageSize - pageHdrLen }

func (st *Store) pageLBA(id int64) int64 { return st.pageBase + id*int64(st.pageSec) }

// Get returns the page with the given id, reading it from the device on a
// pool miss (which may block p). The returned pointer is valid until the
// next potentially-blocking call; see Page.
func (st *Store) Get(p *sim.Proc, id int64) (*Page, error) {
	if id < 0 || id >= st.numPages {
		return nil, fmt.Errorf("%w: page %d of %d", ErrNoSpace, id, st.numPages)
	}
	st.clock++
	if pg, ok := st.pool[id]; ok {
		pg.tick = st.clock
		st.stats.Hits.Inc()
		return pg, nil
	}
	st.stats.Misses.Inc()
	if id > st.maxWritten {
		// Known-fresh page: no device read, and no park — insert directly.
		pg := &Page{ID: id, data: make([]byte, st.UsableSize()), tick: st.clock}
		st.insert(pg)
		return pg, nil
	}
	// The frame the page is read into is the page: decoded in place.
	frame := make([]byte, st.cfg.PageSize)
	if err := st.readFull(p, st.pageLBA(id), frame); err != nil {
		return nil, err
	}
	st.stats.Reads.Inc()
	lsn, err := st.decode(id, frame)
	if err != nil {
		return nil, err
	}
	// The read parked p; someone else may have loaded the page meanwhile.
	if existing, ok := st.pool[id]; ok {
		existing.tick = st.clock
		return existing, nil
	}
	pg := &Page{ID: id, LSN: lsn, data: frame[pageHdrLen:], tick: st.clock}
	st.insert(pg)
	return pg, nil
}

// ReadRun visits pages [first, first+n) in id order, as n calls of Get
// would, but reads every written page the pool lacks in one device request,
// into a run buffer the store keeps for the next call. fn must not block: a
// page stays valid only until the next potentially-blocking call (see
// Page).
func (st *Store) ReadRun(p *sim.Proc, first int64, n int, fn func(*Page) error) error {
	last := first + int64(n) - 1
	if first < 0 || last >= st.numPages {
		return fmt.Errorf("%w: pages %d..%d of %d", ErrNoSpace, first, last, st.numPages)
	}
	// The request spans the written pages the pool lacks; any other page
	// takes one of Get's paths, none of which reads.
	lo, hi := last+1, first-1
	for id := first; id <= min(last, st.maxWritten); id++ {
		if _, ok := st.pool[id]; !ok {
			lo, hi = min(lo, id), id
		}
	}
	var raw []byte
	if lo <= hi {
		raw = sized(&st.run, int(hi-lo+1)*st.cfg.PageSize)
		if err := st.readFull(p, st.pageLBA(lo), raw); err != nil {
			return err
		}
	}
	ps := int64(st.cfg.PageSize)
	for id := first; id <= last; id++ {
		pg, ok := st.pool[id]
		if ok || id < lo || id > hi {
			// Pooled (perhaps loaded by someone else during the read), known
			// fresh, or pooled at the request and evicted since.
			var err error
			if pg, err = st.Get(p, id); err != nil {
				return err
			}
		} else {
			st.clock++
			st.stats.Misses.Inc()
			st.stats.Reads.Inc()
			img := raw[(id-lo)*ps : (id-lo+1)*ps]
			lsn, err := st.decode(id, img)
			if err != nil {
				return err
			}
			pg = &Page{ID: id, LSN: lsn, data: bytes.Clone(img[pageHdrLen:]), tick: st.clock}
			st.insert(pg)
		}
		if err := fn(pg); err != nil {
			return err
		}
	}
	return nil
}

// insert adds a freshly read (clean) page to the pool, making room first.
func (st *Store) insert(pg *Page) {
	st.maybeEvict()
	st.pool[pg.ID] = pg
	st.clean++
}

// decode validates page id's image and returns its LSN; the page's data is
// the image past its header. An all-zero image is a fresh, never-written
// page.
func (st *Store) decode(id int64, raw []byte) (lsn uint64, err error) {
	if binary.LittleEndian.Uint32(raw[0:4]) == 0 && !slices.ContainsFunc(raw, func(b byte) bool { return b != 0 }) {
		return 0, nil
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != pageMagic ||
		int64(binary.LittleEndian.Uint64(raw[4:12])) != id {
		return 0, fmt.Errorf("%w: page %d: bad header", ErrBadPage, id)
	}
	want := binary.LittleEndian.Uint32(raw[20:24])
	crc := crc32.NewIEEE()
	crc.Write(raw[:20])
	crc.Write(raw[pageHdrLen:])
	if crc.Sum32() != want {
		return 0, fmt.Errorf("%w: page %d", ErrBadPage, id)
	}
	return binary.LittleEndian.Uint64(raw[12:20]), nil
}

// readFull fills buf from lba on. A read that power cut short is an error
// here: a page image, the summary and the control sector are whole or
// unread.
func (st *Store) readFull(p *sim.Proc, lba int64, buf []byte) error {
	n, err := st.dev.Read(p, lba, buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("%w: read at lba %d cut short at byte %d of %d", disk.ErrNoPower, lba, n, len(buf))
	}
	return err
}

// sized returns *buf resized to n bytes, growing it when it is too small;
// the contents are undefined.
func sized(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// encode wraps a page into its on-disk image, filling raw (PageSize bytes).
func (st *Store) encode(raw []byte, pg *Page) {
	binary.LittleEndian.PutUint32(raw[0:4], pageMagic)
	binary.LittleEndian.PutUint64(raw[4:12], uint64(pg.ID))
	binary.LittleEndian.PutUint64(raw[12:20], pg.LSN)
	copy(raw[pageHdrLen:], pg.data)
	crc := crc32.NewIEEE()
	crc.Write(raw[:20])
	crc.Write(raw[pageHdrLen:])
	binary.LittleEndian.PutUint32(raw[20:24], crc.Sum32())
}

// maybeEvict drops the least-recently-used clean pages while the pool is
// over its soft bound. Dirty pages are never evicted (no-steal): with no
// clean page left the pool grows until a checkpoint.
func (st *Store) maybeEvict() {
	for len(st.pool) >= st.cfg.PoolPages && st.clean > 0 {
		var victim *Page
		for _, pg := range st.pool {
			if pg.dirty {
				continue
			}
			// A Get that parked on its device read stamps the clock value
			// another page already holds; the page id breaks the tie, map
			// order must not.
			if victim == nil || pg.tick < victim.tick || (pg.tick == victim.tick && pg.ID < victim.ID) {
				victim = pg
			}
		}
		delete(st.pool, victim.ID)
		st.clean--
		st.stats.Evictions.Inc()
	}
}

// MarkDirty flags a pooled page for the next checkpoint. Call it in the
// same non-blocking section as the mutation it covers.
func (st *Store) MarkDirty(id int64) {
	if pg, ok := st.pool[id]; ok {
		if !pg.dirty {
			pg.dirty = true
			st.clean--
		}
		pg.ver++
	}
}

// CheckpointBelow writes every dirty page with an id below limit to the
// device, torn-write-safely; the others stay dirty for the next checkpoint.
// Each batch goes to the double-write area first (sequential, FUA), the
// summary is marked valid, then the pages are written in place and the
// summary cleared. A power cut at any instant leaves either the old page,
// the new page, or a restorable double-write copy.
func (st *Store) CheckpointBelow(p *sim.Proc, limit int64) error {
	var dirty []*Page
	for _, pg := range st.pool {
		if pg.dirty && pg.ID < limit {
			dirty = append(dirty, pg)
		}
	}
	// Deterministic order (map iteration is not).
	slices.SortFunc(dirty, func(a, b *Page) int { return cmp.Compare(a.ID, b.ID) })
	// Snapshot each page's version: a page modified while its batch is in
	// flight stays dirty for the next checkpoint — clearing it would let
	// eviction resurrect the stale on-disk copy.
	vers := make([]uint64, len(dirty))
	for i, pg := range dirty {
		vers[i] = pg.ver
	}
	var bufs dwBuffers
	for start := 0; start < len(dirty); start += dwSlots {
		end := start + dwSlots
		if end > len(dirty) {
			end = len(dirty)
		}
		if err := st.checkpointBatch(p, dirty[start:end], &bufs); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			if pg := dirty[i]; pg.ver == vers[i] {
				pg.dirty = false
				st.clean++
			}
		}
	}
	st.stats.Checkpoints.Inc()
	return nil
}

// dwBuffers are a checkpoint's double-write image, summary and page ids,
// sized by its first batch and reused by the rest. They end with the
// checkpoint: kept by the store, an image outlives its use in every rig a
// harness retains.
type dwBuffers struct {
	image, summary []byte
	ids            []int64
}

func (st *Store) checkpointBatch(p *sim.Proc, batch []*Page, bufs *dwBuffers) error {
	if len(batch) == 0 {
		return nil
	}
	// 1. Stream encoded images to the double-write slots, in batch order.
	ps := st.cfg.PageSize
	blob := sized(&bufs.image, len(batch)*ps)
	for i, pg := range batch {
		st.encode(blob[i*ps:(i+1)*ps], pg)
	}
	if err := st.dev.Write(p, dwSlotBase, blob, true); err != nil {
		return err
	}
	st.stats.Writes.Add(int64(len(batch)))
	// 2. Publish the summary: from here on, a crash restores from the DW
	// copies. The summary may span several sectors; its validity comes
	// from the CRC, so a torn summary write is simply "never valid" and
	// the untouched in-place pages stand.
	need := 12 + len(batch)*8
	ss := disk.SectorSize
	sum := sized(&bufs.summary, (need+ss-1)/ss*ss)
	clear(sum)
	binary.LittleEndian.PutUint32(sum[0:4], dwMagic)
	binary.LittleEndian.PutUint32(sum[4:8], uint32(len(batch)))
	for i, pg := range batch {
		binary.LittleEndian.PutUint64(sum[8+i*8:], uint64(pg.ID))
	}
	binary.LittleEndian.PutUint32(sum[8+len(batch)*8:], crc32.ChecksumIEEE(sum[:8+len(batch)*8]))
	if err := st.dev.Write(p, dwHdrSector, sum, true); err != nil {
		return err
	}
	// 3. Write the pages in place. A power cut that tears a run leaves pages
	// that the double-write copies restore, exactly as for a single torn page.
	bufs.ids = slices.Grow(bufs.ids[:0], len(batch))
	for _, pg := range batch {
		bufs.ids = append(bufs.ids, pg.ID)
	}
	n, err := st.writeRuns(p, bufs.ids, blob)
	st.stats.Writes.Add(int64(n))
	if err != nil {
		return err
	}
	// 4. Retire the summary.
	return st.retireSummary(p, sum)
}

// retireSummary zeroes the double-write summary's first sector, written
// from buf's: no batch is left to restore.
func (st *Store) retireSummary(p *sim.Proc, buf []byte) error {
	sec := buf[:disk.SectorSize]
	clear(sec)
	return st.dev.Write(p, dwHdrSector, sec, true)
}

// writeRuns writes blob's page images (page ids[i] at blob[i·PageSize:])
// in place, one FUA request per run of consecutive ids: a run is contiguous
// on the device and in the blob alike. It returns the pages written.
func (st *Store) writeRuns(p *sim.Proc, ids []int64, blob []byte) (int, error) {
	ps := st.cfg.PageSize
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		if err := st.dev.Write(p, st.pageLBA(ids[i]), blob[i*ps:j*ps], true); err != nil {
			return i, err
		}
		st.maxWritten = max(st.maxWritten, ids[j-1])
		i = j
	}
	return len(ids), nil
}

// RecoverDoubleWrite runs at boot: if the double-write summary is valid, a
// crash interrupted step 3 of a checkpoint batch; restore every slot page
// in place. The slots are read in one request and written back in runs, as
// the checkpoint wrote them. Returns the number of pages restored.
func (st *Store) RecoverDoubleWrite(p *sim.Proc) (int, error) {
	sum := make([]byte, (dwSlotBase-dwHdrSector)*disk.SectorSize)
	if err := st.readFull(p, dwHdrSector, sum); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(sum[0:4]) != dwMagic {
		return 0, nil
	}
	count := int(binary.LittleEndian.Uint32(sum[4:8]))
	if count <= 0 || count > dwSlots || 8+count*8+4 > len(sum) {
		return 0, fmt.Errorf("%w: double-write summary count %d", ErrBadControl, count)
	}
	if crc32.ChecksumIEEE(sum[:8+count*8]) != binary.LittleEndian.Uint32(sum[8+count*8:]) {
		// The summary itself is torn: it never became valid, so the
		// in-place pages were never touched. Nothing to do.
		return 0, st.retireSummary(p, sum)
	}
	ps := st.cfg.PageSize
	blob := make([]byte, count*ps)
	if err := st.readFull(p, dwSlotBase, blob); err != nil {
		return 0, err
	}
	ids := make([]int64, count)
	for i := range ids {
		ids[i] = int64(binary.LittleEndian.Uint64(sum[8+i*8:]))
		if _, err := st.decode(ids[i], blob[i*ps:(i+1)*ps]); err != nil {
			return 0, fmt.Errorf("pagestore: double-write slot %d corrupt: %v", i, err)
		}
	}
	restored, err := st.writeRuns(p, ids, blob)
	st.stats.DWRestores.Add(int64(restored))
	if err != nil {
		return restored, err
	}
	return restored, st.retireSummary(p, sum)
}

// Control block: an engine-owned blob of at most SectorSize−12 bytes,
// written atomically (single sector).

// MaxControlLen returns the largest blob WriteControl accepts.
func (st *Store) MaxControlLen() int { return disk.SectorSize - 12 }

// WriteControl atomically persists the engine's recovery metadata.
func (st *Store) WriteControl(p *sim.Proc, blob []byte) error {
	if len(blob) > st.MaxControlLen() {
		return fmt.Errorf("pagestore: control blob %d bytes exceeds %d", len(blob), st.MaxControlLen())
	}
	sec := make([]byte, disk.SectorSize)
	binary.LittleEndian.PutUint32(sec[0:4], ctrlMagic)
	binary.LittleEndian.PutUint32(sec[4:8], uint32(len(blob)))
	copy(sec[12:], blob)
	binary.LittleEndian.PutUint32(sec[8:12], crc32.ChecksumIEEE(sec[12:12+len(blob)]))
	return st.dev.Write(p, 0, sec, true)
}

// ReadControl returns the last-written control blob, or nil if none was
// ever written.
func (st *Store) ReadControl(p *sim.Proc) ([]byte, error) {
	sec := make([]byte, disk.SectorSize)
	if err := st.readFull(p, 0, sec); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sec[0:4]) != ctrlMagic {
		return nil, nil
	}
	n := int(binary.LittleEndian.Uint32(sec[4:8]))
	if n > st.MaxControlLen() {
		return nil, fmt.Errorf("%w: length %d", ErrBadControl, n)
	}
	if crc32.ChecksumIEEE(sec[12:12+n]) != binary.LittleEndian.Uint32(sec[8:12]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadControl)
	}
	return sec[12 : 12+n], nil
}
