package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is RapiLog's trusted buffer as a pure state machine, driven by
// Logger (rapilog.go): no process, clock, device or trace. It imports only
// the standard library, and only it and its tests touch the fields of
// buffer and entry; TestBufferRulesStandAlone holds both.

// sectorSize is disk.SectorSize; rapilog.go does not compile if they differ.
const sectorSize = 512

// drainBatch is the max entries coalesced per drain round.
const drainBatch = 64

// ErrBadDump: the dump zone holds a dump header that does not validate.
var ErrBadDump = errors.New("rapilog: dump zone contents invalid")

// entry is one buffered write. Its lba plus len(data) is also the range
// index the read overlay consults: pending entries, scanned oldest to
// newest, are exactly the sectors that differ from the backing device.
type entry struct {
	lba  int64
	data []byte
	span uint64 // the hv_ack span; parents this entry's durable event
}

// overlap intersects e with the request of nsec sectors at lba: the bytes
// they share start at off in the request and at eoff in e.data and run n
// bytes, n ≤ 0 when the two are disjoint.
func (e *entry) overlap(lba int64, nsec int) (off, eoff, n int64) {
	s0 := max(lba, e.lba)
	s1 := min(lba+int64(nsec), e.lba+int64(len(e.data))/sectorSize)
	return (s0 - lba) * sectorSize, (s0 - e.lba) * sectorSize, (s1 - s0) * sectorSize
}

// buffer is the hypervisor's write buffer: a FIFO of entries bounded to max
// bytes, with the drain's cursor over its head.
type buffer struct {
	max     int64            // bound on buffered bytes
	bytes   int64            // buffered bytes
	pending []*entry         // FIFO, including the batch being drained
	absorb  map[int64]*entry // pending (not draining) entries by lba
	batch   int              // head entries the current drain round holds
	at, end int              // the run in flight: pending[at:end]
	landed  int64            // bytes of the batch's runs that landed
	entPool []*entry         // retired entry headers
	bufPool map[int][][]byte // retired payload buffers by exact length
	scratch []byte           // coalescing buffer, reused across runs
}

func newBuffer(bound int64) buffer {
	return buffer{max: bound, absorb: make(map[int64]*entry), bufPool: make(map[int][][]byte)}
}

func (b *buffer) count() int          { return len(b.pending) }
func (b *buffer) size() int64         { return b.bytes }
func (b *buffer) tooLarge(n int) bool { return int64(n) > b.max }

// fits reports whether an entry of n bytes can be accepted now.
func (b *buffer) fits(n int) bool { return b.bytes+int64(n) <= b.max }

// absorbed applies write absorption: a rewrite of a pending, not draining
// entry's exact extent supersedes it in place — the disk only ever needs
// the newest version, and log-tail rewrites then cost no drain time. Not
// when a newer entry overlaps the extent: it would land over the rewrite
// with older bytes. It reports whether data was absorbed.
func (b *buffer) absorbed(lba int64, data []byte) bool {
	e, ok := b.absorb[lba]
	if !ok || len(e.data) != len(data) {
		return false
	}
	for i := len(b.pending) - 1; b.pending[i] != e; i-- {
		if _, _, n := b.pending[i].overlap(lba, len(data)/sectorSize); n > 0 {
			return false
		}
	}
	copy(e.data, data)
	return true
}

// insert buffers a copy of data at lba as the newest entry. The caller has
// checked fits.
func (b *buffer) insert(lba int64, data []byte, span uint64) {
	var e *entry
	if n := len(b.entPool); n > 0 {
		e, b.entPool = b.entPool[n-1], b.entPool[:n-1]
	} else {
		e = &entry{}
	}
	e.lba, e.span = lba, span
	if bufs := b.bufPool[len(data)]; len(bufs) > 0 {
		e.data, b.bufPool[len(data)] = bufs[len(bufs)-1], bufs[:len(bufs)-1]
	} else {
		e.data = make([]byte, len(data))
	}
	copy(e.data, data)
	b.pending = append(b.pending, e)
	b.absorb[lba] = e
	b.bytes += int64(len(data))
}

// overlay copies the buffered sectors over dst, the backing contents at
// lba: oldest to newest, so the newest entry wins, as it does on disk.
func (b *buffer) overlay(lba int64, dst []byte) {
	for _, e := range b.pending {
		if off, eoff, n := e.overlap(lba, len(dst)/sectorSize); n > 0 {
			copy(dst[off:off+n], e.data[eoff:eoff+n])
		}
	}
}

// patch copies data over every overlapping entry. Applied before a
// degraded pass-through write lands, it keeps buffered copies never older
// than the media they shadow — for the overlay, the drain and the dump.
func (b *buffer) patch(lba int64, data []byte) {
	for _, e := range b.pending {
		if off, eoff, n := e.overlap(lba, len(data)/sectorSize); n > 0 {
			copy(e.data[eoff:eoff+n], data[off:off+n])
		}
	}
}

// startDrain opens a drain round over the FIFO's head, up to drainBatch
// entries, which can no longer be absorbed into; it returns their number
// and bytes. A round that fails is simply started again: writes are
// idempotent.
func (b *buffer) startDrain() (n int, bytes int64) {
	b.batch, b.at, b.end, b.landed = min(len(b.pending), drainBatch), 0, 0, 0
	for _, e := range b.pending[:b.batch] {
		if b.absorb[e.lba] == e {
			delete(b.absorb, e.lba)
		}
		bytes += int64(len(e.data))
	}
	return b.batch, bytes
}

// nextRun coalesces the round's next contiguous run into the scratch buffer
// and puts it in flight: its first lba and its bytes, valid until the next
// call. ok is false when the round has no run left.
func (b *buffer) nextRun() (lba int64, data []byte, ok bool) {
	if b.at == b.batch {
		return 0, nil, false
	}
	j, size, next := b.at, 0, b.pending[b.at].lba
	for j < b.batch && b.pending[j].lba == next {
		size += len(b.pending[j].data)
		next += int64(len(b.pending[j].data)) / sectorSize
		j++
	}
	if cap(b.scratch) < size {
		b.scratch = make([]byte, 0, max(size, 2*cap(b.scratch)))
	}
	data = b.scratch[:0]
	for _, e := range b.pending[b.at:j] {
		data = append(data, e.data...)
	}
	b.end = j
	return b.pending[b.at].lba, data, true
}

// runLanded marks the run in flight durable, calling durable for each of
// its entries in FIFO order.
func (b *buffer) runLanded(durable func(lba int64, n int, span uint64)) {
	for _, e := range b.pending[b.at:b.end] {
		b.landed += int64(len(e.data))
		durable(e.lba, len(e.data), e.span)
	}
	b.at = b.end
}

// retire ends a round whose runs all landed: its entries and payloads go
// back to the pools, the survivors shift down (the backing array is reused)
// and the space is released. It returns the bytes released.
func (b *buffer) retire() int64 {
	for _, e := range b.pending[:b.batch] {
		b.bufPool[len(e.data)] = append(b.bufPool[len(e.data)], e.data)
		*e = entry{}
		b.entPool = append(b.entPool, e)
	}
	rest := copy(b.pending, b.pending[b.batch:])
	clear(b.pending[rest:])
	b.pending = b.pending[:rest]
	landed := b.landed
	b.bytes -= landed
	b.batch, b.at, b.end, b.landed = 0, 0, 0, 0
	return landed
}

// Dump-zone on-disk format. Everything is written as one sequential burst:
//
//	sector 0:  header  = magic(8) version(4) count(4) payloadLen(8) crc(4)
//	sectors 1+: entries packed back to back, each
//	           entMagic(4) lba(8) len(4) dataCRC(4) data...
//
// and the whole image padded to a sector boundary. Per-entry CRCs make a
// torn dump recover cleanly to a prefix.
const (
	dumpMagic   = "RAPILOG\x00"
	entMagic    = 0x52504c45 // "RPLE"
	dumpVersion = 1
	entHeadLen  = 20
)

// imageBytes bounds the dump image of n buffered bytes: the header sector
// and an entry head per sector (every entry one sector long), padded to a
// sector.
func imageBytes(n int64) int64 {
	payload := n + (n+sectorSize-1)/sectorSize*entHeadLen
	return sectorSize + (payload+sectorSize-1)/sectorSize*sectorSize
}

// dumpImage encodes every pending entry, the run in flight included, as one
// image in one allocation: appending the payload to a header could alias it.
func (b *buffer) dumpImage() (image []byte, payloadLen int) {
	for _, e := range b.pending {
		payloadLen += entHeadLen + len(e.data)
	}
	imageLen := sectorSize + payloadLen
	if pad := imageLen % sectorSize; pad != 0 {
		imageLen += sectorSize - pad
	}
	image = make([]byte, imageLen)
	header := image[:sectorSize]
	copy(header, dumpMagic)
	binary.LittleEndian.PutUint32(header[8:], dumpVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(b.pending)))
	binary.LittleEndian.PutUint64(header[16:], uint64(payloadLen))
	binary.LittleEndian.PutUint32(header[24:], crc32.ChecksumIEEE(header[:24]))
	off := sectorSize
	for _, e := range b.pending {
		h := image[off : off+entHeadLen]
		binary.LittleEndian.PutUint32(h[0:], entMagic)
		binary.LittleEndian.PutUint64(h[4:], uint64(e.lba))
		binary.LittleEndian.PutUint32(h[12:], uint32(len(e.data)))
		binary.LittleEndian.PutUint32(h[16:], crc32.ChecksumIEEE(e.data))
		off += entHeadLen
		off += copy(image[off:], e.data)
	}
	return image, payloadLen
}

// parsedDump is what recovery read from the dump zone: every entry that
// survived intact, in dump order, and whether there was a dump at all and
// whether it was torn (the hold-up deadline hit mid-dump).
type parsedDump struct {
	had, torn bool
	entries   []dumpEntry
}

type dumpEntry struct {
	lba  int64
	data []byte
}

// parseDumpHeader reads a dump image's header sector: ok is false when it
// holds no dump (a clean shutdown, or nothing was buffered).
func parseDumpHeader(h []byte) (count int, payloadLen int64, ok bool, err error) {
	if string(h[:8]) != dumpMagic {
		return 0, 0, false, nil
	}
	if crc32.ChecksumIEEE(h[:24]) != binary.LittleEndian.Uint32(h[24:28]) {
		return 0, 0, false, fmt.Errorf("%w: header CRC mismatch", ErrBadDump)
	}
	if v := binary.LittleEndian.Uint32(h[8:12]); v != dumpVersion {
		return 0, 0, false, fmt.Errorf("%w: version %d", ErrBadDump, v)
	}
	return int(binary.LittleEndian.Uint32(h[12:16])), int64(binary.LittleEndian.Uint64(h[16:24])), true, nil
}

// parseDumpEntries parses up to count entries from payload, which a torn
// dump cuts short: it stops at the first entry that is not whole and
// intact, and reports the tear. Entries alias payload.
func parseDumpEntries(payload []byte, count int) (entries []dumpEntry, torn bool) {
	off := 0
	for i := 0; i < count; i++ {
		if off+entHeadLen > len(payload) {
			return entries, true
		}
		h := payload[off : off+entHeadLen]
		dlen := int(binary.LittleEndian.Uint32(h[12:16]))
		off += entHeadLen
		if binary.LittleEndian.Uint32(h[0:4]) != entMagic || off+dlen > len(payload) {
			return entries, true
		}
		data := payload[off : off+dlen]
		off += dlen
		if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(h[16:20]) {
			return entries, true
		}
		entries = append(entries, dumpEntry{int64(binary.LittleEndian.Uint64(h[4:12])), data})
	}
	return entries, false
}

// replicasNeeded decides recovery's authority after a power cut: whether
// the standbys must be replayed, from the policy, the dump as read (readErr:
// the zone could not be read or parsed) and the dying epoch's failed dump
// writes. The local domain — the drained log plus the dump — is complete
// when a whole dump was read, or when none was written and none failed:
// nothing was buffered. Where complete it is authoritative, since a lagging
// standby holds stale images of sectors the drain has since rewritten. The
// standbys are needed:
//
//   - AckRemoteOnly: always; the dump is disabled by design.
//   - AckQuorum: only when the local domain is not complete. Any rollback
//     their replay inflicts is bounded to unacknowledged writes: a commit
//     was acked only after k standbys held its bytes.
//   - AckLocal: never. A lagging standby can sit arbitrarily far behind the
//     ack frontier; replaying it could only roll acked bytes back.
func replicasNeeded(kind AckKind, d parsedDump, readErr bool, dumpFailures int) bool {
	localComplete := !readErr && (d.had && !d.torn || !d.had && dumpFailures == 0)
	return kind == AckKindRemoteOnly || (kind == AckKindQuorum && !localComplete)
}
