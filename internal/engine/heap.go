package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"strings"

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

// The index maps a key's hash (keyHash) to its live record's location,
// packed as page<<32 | offset (loc). The key itself is stored once, in the
// record: a lookup checks it there, on the page the access reads anyway. A
// key whose hash another live key already holds in index is located by the
// key itself, in spill. No traffic collides, so spill stays empty; and since
// every hit is checked against the record's key, what a key resolves to
// never depends on its hash. Rows are never deleted, so an index entry,
// once made, stays: a key whose hash index lacks has no record.
type heap struct {
	store    *pagestore.Store
	index    map[uint64]uint64 // keyHash → loc; pointer-free, so the GC never scans it
	spill    map[string]uint64 // key → loc, for a key whose hash another key holds in index
	collided []collidedRec     // rebuild's records under a hash index already held, placed once the scan ends

	insertPage int64 // current append target
	nextPage   int64 // first never-used page
}

// keySeed seeds keyHash. A random seed is safe: nothing resolves a key by
// its hash alone.
var keySeed = maphash.MakeSeed()

// keyHash is the hash the heap index and the lock table know a key by. A
// transaction computes it once per Get or Put and passes it to every step
// of the access. maphash.Bytes of the same bytes is the same hash.
func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

// keyBytes is a key as a caller's string or as a view into a log record.
type keyBytes interface{ ~string | ~[]byte }

func loc(pageID int64, off int) uint64 { return uint64(pageID)<<32 | uint64(off) }

// row is a key's place, as find resolved it.
type row struct {
	pg      *pagestore.Page // the page of the key's live record; nil if it has none
	off     int             // the record's offset in pg
	spilled bool            // the key's loc lives in spill, or goes there on insert
}

// collidedRec is a live record rebuild found under a hash index already
// held: another key's, or an older record of the same key.
type collidedRec struct {
	key string
	loc uint64
}

func newHeap(store *pagestore.Store) *heap {
	return &heap{store: store, index: make(map[uint64]uint64), insertPage: 0, nextPage: 1}
}

func valCapFor(n int) int { return n + n/4 }

func recSize(keyLen, valCap int) int { return recFixedHdr + keyLen + valCap }

// usable returns the record area capacity of a page.
func (h *heap) usable() int { return h.store.UsableSize() }

func used(data []byte) int       { return int(binary.LittleEndian.Uint32(data[0:4])) }
func setUsed(data []byte, n int) { binary.LittleEndian.PutUint32(data[0:4], uint32(n)) }

// recKey is the key of the record at off.
func recKey(data []byte, off int) []byte {
	keyLen := int(binary.LittleEndian.Uint16(data[off : off+2]))
	return data[off+recFixedHdr : off+recFixedHdr+keyLen]
}

// read fetches the page of the record at l. It may block p on page I/O.
func (h *heap) read(p *sim.Proc, l uint64) (row, error) {
	pg, err := h.store.Get(p, int64(l>>32))
	return row{pg: pg, off: int(uint32(l))}, err
}

// find resolves key, whose hash is hash, to its live record. It reads the
// record's page, which every caller goes on to read or rewrite, and checks
// the key there.
func find[K keyBytes](h *heap, p *sim.Proc, hash uint64, key K) (row, error) {
	l, ok := h.index[hash]
	if !ok {
		return row{}, nil
	}
	r, err := h.read(p, l)
	if err != nil {
		return row{}, err
	}
	if string(recKey(r.pg.Data(), r.off)) != string(key) {
		return h.findSpilled(p, string(key))
	}
	return r.live(), nil
}

// live returns r without its page if its record is a tombstone: a key's
// loc names one when the insert that was to relocate its row failed.
func (r row) live() row {
	if r.pg.Data()[r.off+6]&flagTombstone != 0 {
		r.pg = nil
	}
	return r
}

// findSpilled resolves a key that index's entry for its hash does not name:
// spill holds it, or it is new and goes there.
func (h *heap) findSpilled(p *sim.Proc, key string) (row, error) {
	l, ok := h.spill[key]
	if !ok {
		return row{spilled: true}, nil
	}
	r, err := h.read(p, l)
	if err != nil {
		return row{}, err
	}
	r.spilled = true
	return r.live(), nil
}

// spillAt records key's location in spill, in a copy of its own: the key is
// a caller's, or a view into a log record or a page.
func (h *heap) spillAt(key string, l uint64) {
	if h.spill == nil {
		h.spill = make(map[string]uint64)
	}
	h.spill[strings.Clone(key)] = l
}

// put inserts or updates a row; hash is keyHash(key). The key is a
// transaction's or a view into a log record, and put keeps no reference to
// it. It may block p on page I/O. The caller must hold the X lock on key.
func put[K keyBytes](h *heap, p *sim.Proc, hash uint64, key K, val []byte) error {
	if err := h.fits(len(key), len(val)); err != nil {
		return err
	}
	r, err := find(h, p, hash, key)
	if err != nil {
		return err
	}
	if r.pg != nil && h.rewrite(r, val) {
		return nil
	}
	l, err := insert(h, p, key, val)
	switch {
	case err != nil:
		return err
	case r.spilled:
		h.spillAt(string(key), l)
	default:
		h.index[hash] = l
	}
	return nil
}

// fits refuses a row too large for a page.
func (h *heap) fits(keyLen, valLen int) error {
	if recSize(keyLen, valCapFor(valLen)) > h.usable()-pageUsedHdr {
		return fmt.Errorf("%w: key %d + val %d bytes", ErrValueTooLarge, keyLen, valLen)
	}
	return nil
}

// rewrite updates the live record r in place if val fits its slot, and
// reports whether it did; otherwise it tombstones the record, and the caller
// inserts the row afresh and moves the key's location to it.
func (h *heap) rewrite(r row, val []byte) bool {
	data, off := r.pg.Data(), r.off
	h.store.MarkDirty(r.pg.ID)
	valCap := int(binary.LittleEndian.Uint16(data[off+2 : off+4]))
	if valCap < len(val) {
		data[off+6] |= flagTombstone
		return false
	}
	binary.LittleEndian.PutUint16(data[off+4:], uint16(len(val)))
	copy(data[off+recFixedHdr+len(recKey(data, off)):], val)
	return true
}

// insert appends a fresh record and returns its location, which the caller
// records; the key must have no live record.
func insert[K keyBytes](h *heap, p *sim.Proc, key K, val []byte) (uint64, error) {
	valCap := valCapFor(len(val))
	need := recSize(len(key), valCap)
	for {
		pg, err := h.store.Get(p, h.insertPage)
		if err != nil {
			return 0, err
		}
		data := pg.Data()
		u := used(data)
		if u == 0 {
			u = pageUsedHdr
		}
		if u+need <= len(data) {
			binary.LittleEndian.PutUint16(data[u:], uint16(len(key)))
			binary.LittleEndian.PutUint16(data[u+2:], uint16(valCap))
			binary.LittleEndian.PutUint16(data[u+4:], uint16(len(val)))
			data[u+6] = 0
			copy(data[u+recFixedHdr:], key)
			copy(data[u+recFixedHdr+len(key):], val)
			setUsed(data, u+need)
			h.store.MarkDirty(h.insertPage)
			return loc(h.insertPage, u), nil
		}
		// Page full: move the insert cursor to a fresh page.
		if h.nextPage >= h.store.NumPages() {
			return 0, fmt.Errorf("engine: data partition full (%d pages)", h.store.NumPages())
		}
		h.insertPage = h.nextPage
		h.nextPage++
	}
}

// appendGet appends the value for key to dst and returns the extended
// slice, or nil and ok=false; hash is keyHash(key). The caller must hold at
// least the S lock.
func (h *heap) appendGet(dst []byte, p *sim.Proc, hash uint64, key string) ([]byte, bool, error) {
	r, err := find(h, p, hash, key)
	if r.pg == nil {
		return nil, false, err
	}
	data, off := r.pg.Data(), r.off
	keyLen := int(binary.LittleEndian.Uint16(data[off : off+2]))
	valLen := int(binary.LittleEndian.Uint16(data[off+4 : off+6]))
	start := off + recFixedHdr + keyLen
	return append(dst, data[start:start+valLen]...), true, nil
}

// rebuildExtentMax caps one rebuild request, in pages. Extents double from
// one page up to it, as wal.ScanBlocks's do: a one-page heap costs a single
// one-page read, and a large one streams instead of paying a rotation per
// page.
const rebuildExtentMax = 256

// rebuild scans pages [0, nextPage) and reconstructs the index and insert
// cursor of a heap newHeap made. Used at recovery, before WAL redo. Pages are
// read in extents of 1, 2, 4, … pages up to rebuildExtentMax, one request
// each.
func (h *heap) rebuild(p *sim.Proc, nextPage int64) error {
	h.nextPage = nextPage
	for id, extent := int64(0), int64(1); id < nextPage; extent = min(2*extent, rebuildExtentMax) {
		n := min(extent, nextPage-id)
		if err := h.store.ReadRun(p, id, int(n), h.indexPage); err != nil {
			return fmt.Errorf("engine: rebuilding index from page %d: %v", id, err)
		}
		id += n
	}
	if len(h.collided) > 0 {
		return h.placeCollided(p)
	}
	return nil
}

// placeCollided places the records rebuild set aside, in scan order, each
// as a put places its key: the last live record of a key wins, as it does
// for the rest of the scan.
func (h *heap) placeCollided(p *sim.Proc) error {
	for _, c := range h.collided {
		hash := keyHash(c.key)
		r, err := find(h, p, hash, c.key)
		if err != nil {
			return err
		}
		if r.spilled {
			h.spillAt(c.key, c.loc)
		} else {
			h.index[hash] = c.loc
		}
	}
	h.collided = nil
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
			key := data[off+recFixedHdr : off+recFixedHdr+keyLen]
			hash, l := maphash.Bytes(keySeed, key), loc(pg.ID, off)
			if _, taken := h.index[hash]; taken {
				h.collided = append(h.collided, collidedRec{string(key), l})
			} else {
				h.index[hash] = l
			}
		}
		off += size
	}
	if u > pageUsedHdr {
		h.insertPage = pg.ID
	}
	return nil
}
