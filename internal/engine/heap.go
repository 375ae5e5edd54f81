package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagestore"
	"repro/internal/sim"
)

// ErrValueTooLarge rejects rows that cannot fit in a page.
var ErrValueTooLarge = errors.New("engine: row too large for a page")

// Heap record layout, inside a page's usable area:
//
//	page[0:4]   used — bytes consumed, starting at 4
//	records     keyLen(2) valCap(2) valLen(2) flags(1) key... val[valCap]...
//
// valCap reserves slack so same-key updates of similar size happen in
// place; a larger value tombstones the old record and inserts a new one.
// A tombstone's space is not reused (no compactor; see DESIGN.md
// non-goals).
const (
	recFixedHdr   = 7
	flagTombstone = 1
	pageUsedHdr   = 4
)

// rowLoc addresses a live record.
type rowLoc struct {
	pageID int64
	off    int32
}

// heap manages record placement over a pagestore and the in-memory index.
//
// The index keeps the key strings it is given. A transaction's keys are its
// caller's, and must not change. A key read out of a log record or a page
// is a view into bytes that will change: it is looked up as it is
// (index[string(b)] does not allocate) and copied into keys only when the
// index gains it. A map assignment to a key the map holds replaces the
// stored string, so a string(b) conversion is for lookups and deletes only.
type heap struct {
	store      *pagestore.Store
	index      map[string]rowLoc
	keys       Arena // the index's copies of keys read from the log or a page
	insertPage int64 // current append target
	nextPage   int64 // first never-used page
}

func newHeap(store *pagestore.Store) *heap {
	return &heap{store: store, index: make(map[string]rowLoc), insertPage: 0, nextPage: 1}
}

func valCapFor(n int) int { return n + n/4 }

func recSize(keyLen, valCap int) int { return recFixedHdr + keyLen + valCap }

// usable returns the record area capacity of a page.
func (h *heap) usable() int { return h.store.UsableSize() }

func used(data []byte) int       { return int(binary.LittleEndian.Uint32(data[0:4])) }
func setUsed(data []byte, n int) { binary.LittleEndian.PutUint32(data[0:4], uint32(n)) }

// put inserts or updates a row. It may block p on page I/O. The caller must
// hold the X lock on key.
func (h *heap) put(p *sim.Proc, key string, val []byte) error {
	if err := h.fits(len(key), len(val)); err != nil {
		return err
	}
	if loc, ok := h.index[key]; ok {
		if inPlace, err := h.rewrite(p, loc, val); inPlace || err != nil {
			return err
		}
		delete(h.index, key)
	}
	return h.insert(p, key, val)
}

// putBytes is put for a key that is a view into a log record: the index
// keeps a copy of it if it gains it.
func (h *heap) putBytes(p *sim.Proc, key, val []byte) error {
	if err := h.fits(len(key), len(val)); err != nil {
		return err
	}
	if loc, ok := h.index[string(key)]; ok {
		if inPlace, err := h.rewrite(p, loc, val); inPlace || err != nil {
			return err
		}
		delete(h.index, string(key))
	}
	return h.insert(p, h.keys.Copy(key), val)
}

// fits refuses a row too large for a page.
func (h *heap) fits(keyLen, valLen int) error {
	if recSize(keyLen, valCapFor(valLen)) > h.usable()-pageUsedHdr {
		return fmt.Errorf("%w: key %d + val %d bytes", ErrValueTooLarge, keyLen, valLen)
	}
	return nil
}

// rewrite updates the live record at loc in place if val fits its slot, and
// reports whether it did; otherwise it tombstones the record, and the caller
// drops its key from the index and inserts the row afresh.
func (h *heap) rewrite(p *sim.Proc, loc rowLoc, val []byte) (bool, error) {
	pg, err := h.store.Get(p, loc.pageID)
	if err != nil {
		return false, err
	}
	data := pg.Data()
	h.store.MarkDirty(loc.pageID)
	valCap := int(binary.LittleEndian.Uint16(data[loc.off+2 : loc.off+4]))
	if valCap < len(val) {
		data[loc.off+6] |= flagTombstone
		return false, nil
	}
	binary.LittleEndian.PutUint16(data[loc.off+4:], uint16(len(val)))
	keyLen := int(binary.LittleEndian.Uint16(data[loc.off : loc.off+2]))
	copy(data[int(loc.off)+recFixedHdr+keyLen:], val)
	return true, nil
}

// insert appends a fresh record; the key must not be live in the index.
func (h *heap) insert(p *sim.Proc, key string, val []byte) error {
	valCap := valCapFor(len(val))
	need := recSize(len(key), valCap)
	for {
		pg, err := h.store.Get(p, h.insertPage)
		if err != nil {
			return err
		}
		data := pg.Data()
		u := used(data)
		if u == 0 {
			u = pageUsedHdr
		}
		if u+need <= len(data) {
			off := int32(u)
			binary.LittleEndian.PutUint16(data[off:], uint16(len(key)))
			binary.LittleEndian.PutUint16(data[off+2:], uint16(valCap))
			binary.LittleEndian.PutUint16(data[off+4:], uint16(len(val)))
			data[off+6] = 0
			copy(data[int(off)+recFixedHdr:], key)
			copy(data[int(off)+recFixedHdr+len(key):], val)
			setUsed(data, u+need)
			h.store.MarkDirty(h.insertPage)
			h.index[key] = rowLoc{pageID: h.insertPage, off: off}
			return nil
		}
		// Page full: move the insert cursor to a fresh page.
		if h.nextPage >= h.store.NumPages() {
			return fmt.Errorf("engine: data partition full (%d pages)", h.store.NumPages())
		}
		h.insertPage = h.nextPage
		h.nextPage++
	}
}

// appendGet appends the value for key to dst and returns the extended
// slice, or nil and ok=false. The caller must hold at least the S lock.
func (h *heap) appendGet(dst []byte, p *sim.Proc, key string) ([]byte, bool, error) {
	loc, ok := h.index[key]
	if !ok {
		return nil, false, nil
	}
	pg, err := h.store.Get(p, loc.pageID)
	if err != nil {
		return nil, false, err
	}
	data := pg.Data()
	keyLen := int(binary.LittleEndian.Uint16(data[loc.off : loc.off+2]))
	valLen := int(binary.LittleEndian.Uint16(data[loc.off+4 : loc.off+6]))
	if data[loc.off+6]&flagTombstone != 0 {
		return nil, false, nil
	}
	start := int(loc.off) + recFixedHdr + keyLen
	return append(dst, data[start:start+valLen]...), true, nil
}

// rebuildExtentMax caps one rebuild request, in pages. Extents double from
// one page up to it, as wal.ScanBlocks's do: a one-page heap costs a single
// one-page read, and a large one streams instead of paying a rotation per
// page.
const rebuildExtentMax = 256

// rebuild scans pages [0, nextPage) and reconstructs the index and insert
// cursor. Used at recovery, before WAL redo. Pages are read in extents of 1,
// 2, 4, … pages up to rebuildExtentMax, one request each.
func (h *heap) rebuild(p *sim.Proc, nextPage int64) error {
	h.index = make(map[string]rowLoc)
	h.nextPage = nextPage
	h.insertPage = 0
	for id, extent := int64(0), int64(1); id < nextPage; extent = min(2*extent, rebuildExtentMax) {
		n := min(extent, nextPage-id)
		if err := h.store.ReadRun(p, id, int(n), h.indexPage); err != nil {
			return fmt.Errorf("engine: rebuilding index from page %d: %v", id, err)
		}
		id += n
	}
	return nil
}

// indexPage adds pg's live records to the index and moves the insert cursor
// to pg if it holds any record. rebuild visits pages in id order, so the
// cursor ends on the last non-empty page.
func (h *heap) indexPage(pg *pagestore.Page) error {
	data := pg.Data()
	u := used(data)
	if u > len(data) {
		return fmt.Errorf("engine: page %d used=%d exceeds capacity", pg.ID, u)
	}
	off := pageUsedHdr
	for off+recFixedHdr <= u {
		keyLen := int(binary.LittleEndian.Uint16(data[off : off+2]))
		valCap := int(binary.LittleEndian.Uint16(data[off+2 : off+4]))
		size := recSize(keyLen, valCap)
		if off+size > u {
			return fmt.Errorf("engine: page %d record at %d overruns used area", pg.ID, off)
		}
		if data[off+6]&flagTombstone == 0 {
			key := h.keys.Copy(data[off+recFixedHdr : off+recFixedHdr+keyLen])
			h.index[key] = rowLoc{pageID: pg.ID, off: int32(off)}
		}
		off += size
	}
	if u > pageUsedHdr {
		h.insertPage = pg.ID
	}
	return nil
}
