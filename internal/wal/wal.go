// Package wal implements the guest database's write-ahead log: the
// component whose synchronous force-at-commit is the entire subject of the
// RapiLog paper.
//
// Layout. The log partition is treated as a circular sequence of fixed-size
// blocks. Each block starts with a small header carrying a monotonically
// increasing block sequence number; records are packed after it and never
// span blocks. An LSN is a byte address in the infinite log space:
// seq·BlockSize + offset. The tail block is rewritten in place as records
// accumulate — the classic pattern that turns every commit into a
// same-sector rewrite costing a full disk rotation, unless commits batch.
//
// Durability. Force(lsn) writes all blocks up to the tail with FUA and
// piggybacks concurrent callers on the in-flight write (group commit): while
// one force is on the disk, later committers wait and are usually covered by
// the next round. An optional CommitDelay widens the batching window.
//
// Recovery. ScanBlocks walks blocks from a start LSN, validating each record's
// length, magic, CRC, and — crucially — that the record's embedded LSN
// matches the scan position, which is what rejects stale bytes left over
// from a previous trip around the circular log. A torn tail (power cut
// mid-force) truncates the log cleanly at the last valid record. The scan
// is one pass that keeps no list: it hands each valid record to the
// caller's visitor as it judges the record's extent, reading the log
// through two extent buffers in turn, and a visitor's error stops it at
// that record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Errors.
var (
	ErrTooBig  = errors.New("wal: record exceeds block capacity")
	ErrLogFull = errors.New("wal: append would overwrite live log data")
)

// RecType distinguishes log record kinds.
type RecType uint8

// Record kinds. The engine assigns meaning; the WAL only frames them.
const (
	RecUpdate RecType = iota + 1
	RecCommit
	RecAbort
	RecCheckpoint
)

// Record is one log entry.
type Record struct {
	LSN     uint64
	TxID    uint64
	Type    RecType
	Payload []byte
}

const (
	blockMagic  = 0x57414c42 // "WALB"
	recMagic    = 0x5245
	blockHdrLen = 16 // magic(4) seq(8) crc(4)
	recHdrLen   = 28 // len(4) lsn(8) txid(8) magic(2) type(1) pad(1) crc(4)
)

const (
	// forceRetryLimit bounds attempts per block write when the device
	// reports a transient media error (disk.IsTransient).
	forceRetryLimit = 3
	// forceRetryBase is the backoff before the first retry, doubling per
	// attempt.
	forceRetryBase = time.Millisecond
)

// Config parameterises a Log.
type Config struct {
	// BlockSize is the log page size; default 4096. Must be a multiple of
	// the device sector size.
	BlockSize int
	// CommitDelay is slept before each physical force to widen the group
	// commit window (PostgreSQL's commit_delay). Default 0.
	CommitDelay time.Duration
	// Obs, when set, registers the log's instruments centrally and traces
	// physical force rounds (log_submit/log_complete events).
	Obs *obs.Obs
}

func (c *Config) applyDefaults() {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
}

// MaxPayload returns the largest payload a record may carry under cfg.
func (c Config) MaxPayload() int {
	bs := c.BlockSize
	if bs == 0 {
		bs = 4096
	}
	return bs - blockHdrLen - recHdrLen
}

// FirstLSN is the address of the first record slot in an empty log.
func FirstLSN(cfg Config) uint64 {
	cfg.applyDefaults()
	return uint64(blockHdrLen)
}

// Stats exposes WAL activity.
type Stats struct {
	Appends       *metrics.Counter
	Forces        *metrics.Counter // physical force rounds
	ForceWaits    *metrics.Counter // callers satisfied by piggybacking
	BlocksWritten *metrics.Counter
	ForceLatency  *metrics.Histogram
	ForceRetries  *metrics.Counter // block writes retried after a transient error
	ForceErrors   *metrics.Counter // forces surrendered with an error
}

func newStats(reg *obs.Registry) *Stats {
	return &Stats{
		Appends:       reg.Counter("wal.appends"),
		Forces:        reg.Counter("wal.forces"),
		ForceWaits:    reg.Counter("wal.force_waits"),
		BlocksWritten: reg.Counter("wal.blocks_written"),
		ForceLatency:  reg.Histogram("wal.force_latency"),
		ForceRetries:  reg.Counter("wal.force_retries"),
		ForceErrors:   reg.Counter("wal.force_errors"),
	}
}

// Log is the write-ahead log writer.
type Log struct {
	s   *sim.Sim
	dev disk.Device
	cfg Config

	nBlocks       uint64
	sectorsPer    int
	curSeq        uint64 // tail block sequence number
	curData       []byte // tail block image (BlockSize)
	curOff        int    // next free byte in tail block
	sealed        []sealedBlock
	appendedLSN   uint64 // address one past the last appended record
	flushedLSN    uint64 // all records below this are on disk
	oldestNeeded  uint64 // wrap barrier (checkpoint horizon)
	forceInFlight bool
	flushedSig    *sim.Signal
	stats         *Stats
	onDurable     func(lsn uint64) // called after flushedLSN advances

	blockPool   [][]byte // written-out block images, reused by sealBlock
	tailBuf     []byte   // persistent tail snapshot reused across forces
	lastTailSeq uint64   // seq tailBuf holds; ^0 when tailBuf is invalid
	lastTailOff int      // bytes of tailBuf valid for lastTailSeq
}

type sealedBlock struct {
	seq  uint64
	data []byte
}

// New creates an empty log on dev (any previous contents are logically
// discarded; the first scan will stop at the new generation's tail).
func New(s *sim.Sim, dev disk.Device, cfg Config) (*Log, error) {
	cfg.applyDefaults()
	if cfg.BlockSize%disk.SectorSize != 0 {
		return nil, fmt.Errorf("wal: block size %d not a multiple of sector size %d", cfg.BlockSize, disk.SectorSize)
	}
	nBlocks := uint64(dev.Sectors()) / uint64(cfg.BlockSize/disk.SectorSize)
	if nBlocks < 2 {
		return nil, fmt.Errorf("wal: device too small (%d blocks)", nBlocks)
	}
	l := &Log{
		s:           s,
		dev:         dev,
		cfg:         cfg,
		nBlocks:     nBlocks,
		sectorsPer:  cfg.BlockSize / disk.SectorSize,
		curData:     make([]byte, cfg.BlockSize),
		curOff:      blockHdrLen,
		flushedSig:  s.NewSignal("wal.flushed"),
		stats:       newStats(cfg.Obs.Registry()),
		lastTailSeq: ^uint64(0),
	}
	l.appendedLSN = l.lsn()
	l.flushedLSN = l.appendedLSN
	l.oldestNeeded = l.appendedLSN
	return l, nil
}

// OpenAt resumes appending at endLSN (the value ScanBlocks reported), reloading
// the partial tail block from the device. fromLSN is where that scan
// started: the records from it on stay needed, and the wrap barrier holds
// there until the caller's next SetOldestNeeded.
func OpenAt(p *sim.Proc, s *sim.Sim, dev disk.Device, cfg Config, fromLSN, endLSN uint64) (*Log, error) {
	l, err := New(s, dev, cfg)
	if err != nil {
		return nil, err
	}
	l.curSeq = endLSN / uint64(l.cfg.BlockSize)
	l.curOff = int(endLSN % uint64(l.cfg.BlockSize))
	if l.curOff < blockHdrLen {
		l.curOff = blockHdrLen
	}
	if l.curOff > blockHdrLen {
		n, err := dev.Read(p, l.blockLBA(l.curSeq), l.curData)
		if err == nil && n < l.curOff {
			err = fmt.Errorf("%w: resume block read cut short at byte %d", disk.ErrNoPower, n)
		}
		if err != nil {
			return nil, err
		}
		// Anything past the resume point is dead; zero it so stale bytes
		// cannot resurrect on the next force.
		clear(l.curData[l.curOff:])
	}
	l.appendedLSN = l.lsn()
	l.flushedLSN = l.appendedLSN
	l.oldestNeeded = min(fromLSN, l.appendedLSN)
	return l, nil
}

// Stats returns the log's counters.
func (l *Log) Stats() *Stats { return l.stats }

// SetOnDurable installs a hook invoked (from the forcing process) each time
// the durability horizon advances, with the new flushedLSN. The engine uses
// it to retire commits waiting on durable-on-disk.
func (l *Log) SetOnDurable(fn func(lsn uint64)) { l.onDurable = fn }

// AppendedLSN returns the address one past the last appended record.
func (l *Log) AppendedLSN() uint64 { return l.appendedLSN }

// SetOldestNeeded moves the wrap barrier forward; blocks below it may be
// overwritten. The engine calls this after each checkpoint.
func (l *Log) SetOldestNeeded(lsn uint64) {
	if lsn > l.oldestNeeded {
		l.oldestNeeded = lsn
	}
}

func (l *Log) lsn() uint64 { return l.curSeq*uint64(l.cfg.BlockSize) + uint64(l.curOff) }

func (l *Log) blockLBA(seq uint64) int64 {
	return int64(seq%l.nBlocks) * int64(l.sectorsPer)
}

// Append frames rec into the log and returns its LSN. Append itself never
// touches the disk; call Force to make it durable. It returns ErrLogFull
// when the circular log would wrap onto blocks still needed for recovery.
func (l *Log) Append(p *sim.Proc, typ RecType, txid uint64, payload []byte) (uint64, error) {
	recLen := recHdrLen + len(payload)
	if recLen > l.cfg.BlockSize-blockHdrLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooBig, len(payload))
	}
	if l.curOff+recLen > l.cfg.BlockSize {
		l.sealBlock()
	}
	// Wrap check: the tail block must not collide with the oldest block
	// still needed.
	if l.curSeq >= l.nBlocks {
		oldestSeq := l.oldestNeeded / uint64(l.cfg.BlockSize)
		if l.curSeq-oldestSeq >= l.nBlocks {
			return 0, fmt.Errorf("%w: tail seq %d, oldest needed seq %d, capacity %d blocks",
				ErrLogFull, l.curSeq, oldestSeq, l.nBlocks)
		}
	}
	lsn := l.lsn()
	h := l.curData[l.curOff : l.curOff+recHdrLen]
	binary.LittleEndian.PutUint32(h[0:], uint32(recLen))
	binary.LittleEndian.PutUint64(h[4:], lsn)
	binary.LittleEndian.PutUint64(h[12:], txid)
	binary.LittleEndian.PutUint16(h[20:], recMagic)
	h[22] = byte(typ)
	h[23] = 0
	crc := crc32.Update(0, crc32.IEEETable, h[:24])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(h[24:], crc)
	copy(l.curData[l.curOff+recHdrLen:], payload)
	l.curOff += recLen
	l.appendedLSN = l.lsn()
	l.stats.Appends.Inc()
	return lsn, nil
}

// sealBlock finalises the tail block and starts the next one. The sealed
// image is kept in memory until a force writes it; the replacement tail
// comes from the pool of already-written block images when one is free.
func (l *Log) sealBlock() {
	l.finishHeader(l.curData, l.curSeq)
	l.sealed = append(l.sealed, sealedBlock{seq: l.curSeq, data: l.curData})
	l.curSeq++
	l.curData = l.newBlock()
	l.curOff = blockHdrLen
}

// newBlock returns a zeroed BlockSize buffer, reusing a written-out one
// when available. Zeroing matters: ScanBlocks treats a zero record length as
// never-written space, and stale bytes must not survive into a new block.
func (l *Log) newBlock() []byte {
	if n := len(l.blockPool); n > 0 {
		b := l.blockPool[n-1]
		l.blockPool = l.blockPool[:n-1]
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make([]byte, l.cfg.BlockSize)
}

func (l *Log) finishHeader(data []byte, seq uint64) {
	binary.LittleEndian.PutUint32(data[0:], blockMagic)
	binary.LittleEndian.PutUint64(data[4:], seq)
	binary.LittleEndian.PutUint32(data[12:], crc32.ChecksumIEEE(data[:12]))
}

// Force blocks until every record below lsn is durable. Concurrent callers
// piggyback on the in-flight physical write — the group commit that lets
// synchronous engines scale with client count.
func (l *Log) Force(p *sim.Proc, lsn uint64) error {
	start := p.Now()
	if lsn > l.appendedLSN {
		lsn = l.appendedLSN
	}
	waited := false
	for l.flushedLSN < lsn {
		if l.forceInFlight {
			waited = true
			l.flushedSig.Wait(p)
			continue
		}
		l.forceInFlight = true
		err := func() error {
			defer func() {
				l.forceInFlight = false
				l.flushedSig.Broadcast()
			}()
			if l.cfg.CommitDelay > 0 {
				p.Sleep(l.cfg.CommitDelay)
			}
			return l.physicalForce(p)
		}()
		if err != nil {
			return err
		}
	}
	if waited {
		l.stats.ForceWaits.Inc()
	}
	l.stats.ForceLatency.Observe(p.Now().Sub(start))
	return nil
}

// physicalForce writes all sealed blocks plus a snapshot of the partial
// tail, in order, with FUA. Every image is captured before the first
// device write: appends that land while the writes are in flight — and in
// particular a tail block that seals mid-force — belong to the NEXT force,
// or flushedLSN would advance past records that never reached the device.
func (l *Log) physicalForce(p *sim.Proc) error {
	target := l.appendedLSN
	sealed := l.sealed
	l.sealed = nil
	var tail []byte
	tailSeq := l.curSeq
	if l.curOff > blockHdrLen && target > l.flushedLSN {
		// Snapshot the partial tail into the persistent buffer. If the last
		// force snapshotted the same block, only the newly appended bytes
		// need copying: records are append-only within a block and the
		// header (magic, seq, CRC over those 12 bytes) is constant per seq.
		if l.tailBuf == nil {
			l.tailBuf = make([]byte, l.cfg.BlockSize)
		}
		if l.lastTailSeq == tailSeq {
			copy(l.tailBuf[l.lastTailOff:l.curOff], l.curData[l.lastTailOff:l.curOff])
		} else {
			copy(l.tailBuf, l.curData)
			l.finishHeader(l.tailBuf, tailSeq)
		}
		l.lastTailSeq, l.lastTailOff = tailSeq, l.curOff
		tail = l.tailBuf
	}
	tr := l.cfg.Obs.Tracer()
	forceSpan := tr.NewSpan()
	if tr.Enabled() {
		nBlocks := len(sealed)
		if tail != nil {
			nBlocks++
		}
		tr.Emit(p.Now().Duration(), obs.EvLogSubmit, forceSpan, 0, int64(target), int64(nBlocks)*int64(l.cfg.BlockSize))
	}
	for i, b := range sealed {
		// Park the force span in the cause slot so the device layer below
		// (which has no trace parameter in its interface) can parent its
		// hv_ack under this force. Re-armed per block: the device consumes it.
		tr.SetCause(forceSpan)
		if err := l.writeBlock(p, b.seq, b.data); err != nil {
			tr.ClearCause()
			// Requeue the unwritten suffix so a later force retries it.
			l.sealed = append(sealed[i:], l.sealed...)
			return fmt.Errorf("wal: force of block seq %d: %w", b.seq, err)
		}
		// The device copied the image during Write; the buffer is free to
		// back a future tail block.
		l.blockPool = append(l.blockPool, b.data)
		l.stats.BlocksWritten.Inc()
	}
	if tail != nil {
		tr.SetCause(forceSpan)
		if err := l.writeBlock(p, tailSeq, tail); err != nil {
			tr.ClearCause()
			return fmt.Errorf("wal: force of tail block seq %d: %w", tailSeq, err)
		}
		l.stats.BlocksWritten.Inc()
	}
	tr.ClearCause()
	if target > l.flushedLSN {
		l.flushedLSN = target
	}
	l.stats.Forces.Inc()
	tr.Emit(p.Now().Duration(), obs.EvLogComplete, 0, forceSpan, int64(l.flushedLSN), 0)
	if l.onDurable != nil {
		l.onDurable(l.flushedLSN)
	}
	return nil
}

// writeBlock writes one block image with FUA, riding out transient media
// errors (disk.IsTransient) with bounded exponential backoff. Anything
// else — power loss, range errors — is surrendered immediately: the error
// reaches the committer, which classifies it for its client. The %w chain
// preserves the disk sentinel the whole way up.
func (l *Log) writeBlock(p *sim.Proc, seq uint64, data []byte) error {
	delay := forceRetryBase
	for attempt := 1; ; attempt++ {
		err := l.dev.Write(p, l.blockLBA(seq), data, true)
		if err == nil {
			return nil
		}
		if !disk.IsTransient(err) || attempt >= forceRetryLimit {
			l.stats.ForceErrors.Inc()
			return err
		}
		l.stats.ForceRetries.Inc()
		p.Sleep(delay)
		if delay *= 2; delay > 64*time.Millisecond {
			delay = 64 * time.Millisecond
		}
	}
}

// ScanResult is where recovery finds the log's end.
type ScanResult struct {
	EndLSN uint64 // resume point for OpenAt
	Torn   bool   // the tail ended mid-record (power cut during a force)
}

// scanExtentBytes caps one scan request at about one track of the default
// HDD (500 sectors): 32 blocks of 8 KiB. Extents double from one block up
// to it, so an empty log costs a single one-block read, and the cap bounds
// what a scan reads past the end of a long log to two extents.
const scanExtentBytes = 256 << 10

// extents are the two buffers a scan reads the log into, in turn.
type extents struct {
	buf  [2][]byte
	next int // the buffer the next extent takes
}

// take hands out the buffer for an extent of n bytes, grown to it if it is
// smaller; its previous extent's visits are over.
func (x *extents) take(n int) []byte {
	b := &x.buf[x.next]
	x.next ^= 1
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	return (*b)[:n]
}

// ScanBlocks reads records from fromLSN to the log's tail, stopping at the
// first invalid record (torn tail, old generation, or never-written space),
// and reads at most limit blocks, fromLSN's own first (limit ≤ 0: no
// limit). A caller that wrote every block the log can have gained since
// fromLSN knows how far it can reach: the scan reads no further, and starts
// with an extent of limit blocks (up to the cap) instead of one.
//
// It makes one pass and collects nothing: each valid record goes to visit,
// in log order, as the scan judges the extent that holds it. The extents
// are read into two buffers in turn, each grown to the extents it takes, so
// a record's payload is a view that is valid only during its visit: a
// visitor that keeps a payload copies it. If visit returns an error, the
// scan hands over no further
// record, waits for the extent it has queued and returns that error, with
// EndLSN at the refused record.
//
// The log is read in extents of 1, 2, 4, … blocks up to scanExtentBytes,
// each one request that never crosses the circular wrap. A block's
// successor is judged from the extent in memory; only the last block of an
// extent waits for the next request to be judged. The first extent is read
// alone. Once the log runs past it, the next extent is always queued at the
// device behind the one in transfer, so the head streams from one into the
// next instead of missing a rotation while the scanner judges. At the end of
// the log the scan waits for the extent still in flight: nothing it started
// outlives the call.
func ScanBlocks(p *sim.Proc, dev disk.Device, cfg Config, fromLSN uint64, limit int, visit func(Record) error) (ScanResult, error) {
	cfg.applyDefaults()
	var res ScanResult
	var ext extents
	bs := cfg.BlockSize
	sectorsPer := bs / disk.SectorSize
	nBlocks := uint64(dev.Sectors()) / uint64(sectorsPer)
	extentMax := uint64(max(1, scanExtentBytes/bs))
	seq := fromLSN / uint64(bs)
	off := int(fromLSN % uint64(bs))
	if off < blockHdrLen {
		off = blockHdrLen
	}
	res.EndLSN = seq*uint64(bs) + uint64(off)

	// judge scans the blocks one extent's read filled, and reports whether
	// the scan ends there: the read failed, the log ended in the extent or
	// visit refused a record.
	blockTorn := false // the last block scanned ended in a torn record
	judge := func(data []byte, err error) (stop bool, _ error) {
		if checked {
			// The extent's visits are over when judge returns. Under the
			// check build its buffer is poisoned then, before a later extent
			// reuses it, so a payload kept past its visit reads poison.
			defer func() {
				data = data[:cap(data)]
				for i := range data {
					data[i] = 0xDB
				}
			}()
		}
		if err != nil {
			return true, err
		}
		for i := 0; i < len(data)/bs; i, seq = i+1, seq+1 {
			block := data[i*bs : (i+1)*bs]
			if !blockValid(block, seq) {
				// End of this generation. After a torn block, a bad successor
				// confirms the tear: with ordered writes, no later complete
				// force can have superseded it.
				res.Torn = blockTorn
				return true, nil
			}
			// A valid block; if it is a successor, the gap before it was
			// only padding.
			res.EndLSN = seq*uint64(bs) + uint64(off)
			if blockTorn, err = scanBlock(block, seq, off, &res, visit); err != nil {
				return true, err
			}
			off = blockHdrLen
		}
		return false, nil
	}

	next, extent := seq, uint64(1) // the next block to request, and how many
	end := ^uint64(0)              // the first block not to read
	if limit > 0 {
		end, extent = seq+uint64(limit), min(uint64(limit), extentMax)
	}
	span := func() (lba int64, buf []byte) {
		n := min(extent, nBlocks-next%nBlocks, end-next)
		lba, buf = int64(next%nBlocks)*int64(sectorsPer), ext.take(int(n)*bs)
		next, extent = next+n, min(2*extent, extentMax)
		return lba, buf
	}
	// queue reads the next extent on a helper process in the scanner's
	// domain, so that the request waits at the device behind the one in
	// transfer while the scanner judges; a crash of the domain takes the
	// helper too. Past the limit there is nothing to read: nil.
	queue := func() *extentRead {
		if next >= end {
			return nil
		}
		lba, buf := span()
		r := &extentRead{data: buf, done: p.Sim().NewEvent("wal.scan.extent")}
		p.Sim().Spawn(p.Domain(), "wal.scan", func(hp *sim.Proc) {
			var n int
			n, r.err = dev.Read(hp, lba, r.data)
			r.data = r.data[:n]
			r.done.Fire()
		})
		return r
	}

	lba, buf := span()
	n, err := dev.Read(p, lba, buf)
	if stop, err := judge(buf[:n], err); stop {
		return res, err
	}
	for cur := queue(); cur != nil; {
		ahead := queue()
		cur.done.Wait(p)
		if stop, err := judge(cur.data, cur.err); stop {
			if ahead != nil {
				ahead.done.Wait(p)
			}
			return res, err
		}
		cur = ahead
	}
	return res, nil
}

// extentRead is one ScanBlocks extent in flight on a helper process: the
// buffer it reads into, cut to what the read filled once done fires.
type extentRead struct {
	data []byte
	err  error
	done *sim.Event
}

// blockValid reports whether data holds the header of block seq of the
// current generation.
func blockValid(data []byte, seq uint64) bool {
	return binary.LittleEndian.Uint32(data[0:4]) == blockMagic &&
		crc32.ChecksumIEEE(data[:12]) == binary.LittleEndian.Uint32(data[12:16]) &&
		binary.LittleEndian.Uint64(data[4:12]) == seq
}

// scanBlock hands the valid records of block seq from byte off on to visit,
// advancing res.EndLSN past each it accepts, and reports whether the block
// ended in a torn record rather than in never-written space. It stops at
// the first record visit refuses and returns visit's error.
func scanBlock(data []byte, seq uint64, off int, res *ScanResult, visit func(Record) error) (torn bool, err error) {
	bs := len(data)
	for off+recHdrLen <= bs {
		lsn := seq*uint64(bs) + uint64(off)
		h := data[off:]
		recLen := int(binary.LittleEndian.Uint32(h[0:4]))
		if recLen < recHdrLen || off+recLen > bs ||
			binary.LittleEndian.Uint16(h[20:22]) != recMagic ||
			binary.LittleEndian.Uint64(h[4:12]) != lsn {
			return recLen != 0, nil
		}
		payload := data[off+recHdrLen : off+recLen : off+recLen]
		crc := crc32.Update(0, crc32.IEEETable, h[:24])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != binary.LittleEndian.Uint32(h[24:28]) {
			return true, nil
		}
		if err := visit(Record{
			LSN:     lsn,
			TxID:    binary.LittleEndian.Uint64(h[12:20]),
			Type:    RecType(h[22]),
			Payload: payload,
		}); err != nil {
			return false, err
		}
		off += recLen
		res.EndLSN = seq*uint64(bs) + uint64(off)
	}
	return false, nil
}
