// Package engine implements the transactional key-value storage engine the
// RapiLog evaluation drives: write-ahead logging with group commit, strict
// two-phase locking, a no-steal buffer pool with double-write-protected
// fuzzy checkpoints, and full crash recovery.
//
// Architecture (deferred update / no-steal / redo-only):
//
//   - A transaction buffers its writes privately. Pages never contain
//     uncommitted data, so recovery needs no undo pass.
//   - Commit appends logical redo records plus a commit record to the WAL,
//     forces the log according to the commit mode (the knob the whole
//     paper turns), then applies the writes to the heap pages while still
//     holding its locks.
//   - A checkpoint flushes dirty pages (torn-write-safe) and advances the
//     WAL horizon to the oldest LSN a crash would still need: the minimum
//     first-LSN across transactions whose page application is incomplete.
//   - Recovery restores interrupted page writes, rebuilds the in-memory
//     index from the heap, then replays committed transactions found in
//     the WAL after the checkpoint horizon. Updates are whole-row puts, so
//     replay is idempotent. The engine serves as soon as redo is in the
//     pool; the checkpoint that folds the redone pages, which only bounds
//     the next recovery, is the checkpointer's first round.
//
// Engine personalities (PG-, MY-, CX-like) vary the commit batching window
// and CPU cost per operation — the parameters that shape the paper's
// per-engine throughput curves.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"time"

	"repro/internal/hv"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/sim"
	"repro/internal/wal"
)

// CommitMode selects the durability policy at commit.
type CommitMode int

// Commit modes.
const (
	// CommitSync forces the WAL before acknowledging: the safe default and
	// the expensive path RapiLog attacks.
	CommitSync CommitMode = iota
	// CommitAsync acknowledges without forcing; a background WAL writer
	// forces periodically. Fast and unsafe: the paper's "throw away
	// durability" baseline.
	CommitAsync
)

// Personality bundles the parameters that make the simulated engine behave
// like a particular DBMS family.
type Personality struct {
	Name string
	// CommitDelay widens the group-commit window (wal.Config.CommitDelay).
	CommitDelay time.Duration
	// CPUPerOp is charged for each Get/Put.
	CPUPerOp time.Duration
	// CPUPerTxn is charged once per transaction (parse/plan/etc.).
	CPUPerTxn time.Duration
	// PageSize for the data partition.
	PageSize int
	// WalBlockSize for the log.
	WalBlockSize int
}

// The three personalities used in the evaluation. The parameters are not
// calibrated to any vendor; they span the design space the paper's engines
// covered: a lean engine with no commit delay (PG-like), one with a wider
// explicit batching window (MY-like), and a heavier, CPU-richer commercial
// style engine (CX-like).
var (
	PGLike = Personality{Name: "pg", CommitDelay: 0, CPUPerOp: 3 * time.Microsecond, CPUPerTxn: 60 * time.Microsecond, PageSize: 8192, WalBlockSize: 8192}
	MYLike = Personality{Name: "my", CommitDelay: 300 * time.Microsecond, CPUPerOp: 4 * time.Microsecond, CPUPerTxn: 80 * time.Microsecond, PageSize: 16384, WalBlockSize: 4096}
	CXLike = Personality{Name: "cx", CommitDelay: 100 * time.Microsecond, CPUPerOp: 9 * time.Microsecond, CPUPerTxn: 150 * time.Microsecond, PageSize: 8192, WalBlockSize: 4096}
)

// Personalities maps names to presets for CLI tools.
var Personalities = map[string]Personality{
	"pg": PGLike,
	"my": MYLike,
	"cx": CXLike,
}

// walWriterEvery is the async-mode background force period.
const walWriterEvery = 10 * time.Millisecond

// maxControlRounds bounds the checkpoint's phase-1 control writes (see
// Checkpoint).
const maxControlRounds = 256

// lockTimeout bounds a lock wait: the backstop behind deadlock detection.
const lockTimeout = 200 * time.Millisecond

// Config parameterises an Engine.
type Config struct {
	Personality
	CommitMode      CommitMode
	CheckpointEvery time.Duration // background checkpoint period; default 10s
	// NoDaemons disables the background WAL writer and checkpointer;
	// tests drive those paths explicitly.
	NoDaemons bool
	// Obs, when set, registers the engine's instruments centrally and
	// traces the commit lifecycle (tx_begin through tx_durable).
	Obs *obs.Obs
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Personality = PGLike
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10 * time.Second
	}
}

// Stats aggregates engine activity.
type Stats struct {
	Commits *metrics.Counter
	Aborts  *metrics.Counter
	Reads   *metrics.Counter
	Writes  *metrics.Counter
	// CommitLatency is commit start → acknowledgement to the client — the
	// guest-visible figure. Under RapiLog the ack may precede platter
	// durability; DurableLatency is commit start → the commit record
	// passing the WAL durability horizon.
	CommitLatency  *metrics.Histogram
	DurableLatency *metrics.Histogram
	TxnLatency     *metrics.Histogram
	Checkpoints    *metrics.Counter
	RedoneTxns     *metrics.Counter // transactions replayed during recovery
	ForceErrors    *metrics.Counter // commits aborted by a failed log force
}

func newStats(reg *obs.Registry) *Stats {
	return &Stats{
		Commits:        reg.Counter("engine.commits"),
		Aborts:         reg.Counter("engine.aborts"),
		Reads:          reg.Counter("engine.reads"),
		Writes:         reg.Counter("engine.writes"),
		CommitLatency:  reg.Histogram("engine.commit.ack_latency"),
		DurableLatency: reg.Histogram("engine.commit.durable_latency"),
		TxnLatency:     reg.Histogram("engine.txn_latency"),
		Checkpoints:    reg.Counter("engine.checkpoints"),
		RedoneTxns:     reg.Counter("engine.redone_txns"),
		ForceErrors:    reg.Counter("engine.commit.force_errors"),
	}
}

// Engine is one database instance bound to a Platform. It lives in the
// platform's crash domain: killing the domain abandons the instance, and
// Open on a fresh Engine performs recovery from the devices.
type Engine struct {
	cfg   Config
	plat  hv.Platform
	s     *sim.Sim
	log   *wal.Log
	store *pagestore.Store
	heap  *heap
	locks *lockTable
	stats *Stats

	nextTxID uint64
	ckptLSN  uint64
	// pendingDurable holds commits whose ack has (or will) come back before
	// their commit record is on the log device. Entries are appended in
	// commit-LSN order, so the WAL's durability callback retires a prefix.
	pendingDurable []pendingCommit
	// applying tracks transactions between their first WAL append and the
	// completion of their page application; the checkpoint horizon must
	// not pass their first LSN.
	applying map[uint64]uint64 // txid → first LSN
	// follow is the recovery state of an engine that does not lead yet
	// (Follow); nil once Lead has opened the log.
	follow   *follower
	ckptBusy bool
	ckptDone *sim.Signal
	// txFree holds the states of finished transactions for Begin to reuse.
	txFree []*txState
}

// pendingCommit tracks one commit from WAL append to durable-on-device.
type pendingCommit struct {
	needLSN uint64 // durable once the log's flushed horizon reaches this
	txid    uint64
	start   sim.Time   // commit start, for the durable-latency histogram
	span    obs.SpanID // the transaction's trace span
}

// onWalDurable is the wal.Log durability callback: retire every pending
// commit whose record is now below the flushed horizon.
func (e *Engine) onWalDurable(lsn uint64) {
	now := e.s.Now()
	n := 0
	for ; n < len(e.pendingDurable) && e.pendingDurable[n].needLSN <= lsn; n++ {
		pc := e.pendingDurable[n]
		e.stats.DurableLatency.Observe(now.Sub(pc.start))
		e.tracer().Emit(now.Duration(), obs.EvTxDurable, 0, pc.span, int64(pc.txid), 0)
	}
	// Shift rather than reslice: e.pendingDurable[n:] would walk the backing
	// array forward and make every append past its end reallocate.
	e.pendingDurable = e.pendingDurable[:copy(e.pendingDurable, e.pendingDurable[n:])]
}

// tracer returns the engine's tracer (nil — a no-op — when unconfigured).
func (e *Engine) tracer() *obs.Tracer { return e.cfg.Obs.Tracer() }

// updatePayload frames a logical redo record — a reserved flag byte, key,
// value — into buf's backing array, growing it only when capacity falls
// short. The commit path passes a pooled buffer (wal.Append copies
// synchronously, so the same buffer re-encodes every write of the
// transaction). The flag byte is always zero, and parseUpdatePayload
// refuses any other value.
func updatePayload(buf []byte, key string, val []byte) []byte {
	n := 3 + len(key) + len(val)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0] = 0
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(key)))
	copy(buf[3:], key)
	copy(buf[3+len(key):], val)
	return buf
}

// errBadRedo is a redo record recovery cannot apply.
var errBadRedo = errors.New("engine: corrupt redo record")

// parseUpdatePayload reads a redo record. key and val are views into
// payload. A non-zero flag byte is refused: no writer sets it.
func parseUpdatePayload(payload []byte) (key, val []byte, err error) {
	switch {
	case len(payload) < 3:
		return nil, nil, fmt.Errorf("%w: short update payload", errBadRedo)
	case payload[0] != 0:
		return nil, nil, fmt.Errorf("%w: reserved flag byte %#x", errBadRedo, payload[0])
	}
	kl := int(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+kl > len(payload) {
		return nil, nil, fmt.Errorf("%w: key overruns the payload", errBadRedo)
	}
	return payload[3 : 3+kl], payload[3+kl:], nil
}

// Open boots an engine on plat: double-write restore, index rebuild and WAL
// redo, and returns it serving. After a redo the fold into a checkpoint
// runs in the background (see Lead). It must run in the platform's domain.
// It is Follow then Lead with no catch-up round in between.
func Open(p *sim.Proc, plat hv.Platform, cfg Config) (*Engine, error) {
	e, err := Follow(p, plat, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Lead(p, -1); err != nil {
		return nil, err
	}
	return e, nil
}

// Follow runs the first three steps of recovery on plat — double-write
// restore, the control block, the index rebuild — and returns an engine
// that does not serve yet: it holds a redo cursor at the checkpoint
// horizon. CatchUp redoes what the log holds past the cursor, as often as
// the log grows underneath (a warm standby's follower rounds); Lead
// catches up one last time and opens the log for appends. It must run in
// the platform's domain, as must CatchUp and Lead.
func Follow(p *sim.Proc, plat hv.Platform, cfg Config) (*Engine, error) {
	cfg.applyDefaults()
	s := plat.Sim()
	store, err := pagestore.Open(s, plat.DataDisk(), cfg.Obs.Registry(), pagestore.Config{PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		plat:     plat,
		s:        s,
		store:    store,
		heap:     newHeap(store),
		locks:    newLockTable(s, lockTimeout),
		stats:    newStats(cfg.Obs.Registry()),
		applying: make(map[uint64]uint64),
		ckptDone: s.NewSignal("engine.ckpt_done"),
		follow: &follower{
			walCfg: wal.Config{BlockSize: cfg.WalBlockSize, CommitDelay: cfg.CommitDelay, Obs: cfg.Obs},
		},
	}
	s.OnClose(e.release)
	f := e.follow

	// 1. Torn checkpoint repair.
	if _, err := store.RecoverDoubleWrite(p); err != nil {
		return nil, err
	}

	// 2. Recovery metadata. A missing control block proves no checkpoint
	// ever started, hence no page was ever flushed (phase 1 writes the
	// control before any page), so every page is known fresh.
	f.startLSN = wal.FirstLSN(f.walCfg)
	nextPage := int64(1)
	if blob, err := store.ReadControl(p); err != nil {
		return nil, err
	} else if blob == nil {
		store.SetWrittenThrough(-1)
	} else {
		if len(blob) < 24 {
			return nil, errors.New("engine: short control block")
		}
		e.ckptLSN = binary.LittleEndian.Uint64(blob[0:8])
		nextPage = int64(binary.LittleEndian.Uint64(blob[8:16]))
		e.nextTxID = binary.LittleEndian.Uint64(blob[16:24])
		f.startLSN = e.ckptLSN
		store.SetWrittenThrough(nextPage - 1)
	}
	f.cursor = f.startLSN

	// 3. Rebuild the in-memory index from the heap pages.
	if err := e.heap.rebuild(p, nextPage); err != nil {
		return nil, err
	}
	return e, nil
}

// follower is an engine's recovery state until it leads: where the next
// scan starts, and the updates of transactions whose commit record it has
// not seen yet.
type follower struct {
	walCfg      wal.Config
	startLSN    uint64       // the checkpoint horizon: the log from here on stays needed
	cursor      uint64       // the next scan starts here
	uncommitted []wal.Record // updates awaiting their commit (or abort) record, in log order
	held        []byte       // their payloads, copied out of the scan; emptied when none is held
	redone      int          // transactions redone so far
}

// CatchUp is step 4 of recovery, from the cursor on: scan the log to its
// current end and redo every transaction whose commit record it finds,
// holding the updates of the rest until their commit arrives. It is the
// scan's visitor, so it works in the scan's one pass and keeps no list of
// its own: an update joins the held ones (its payload copied out of the
// scan's buffer, which takes a later extent once the visit returns), a
// commit record is redone on the spot, and an abort drops its updates. An
// error in redo stops the scan there and comes back from CatchUp. Redo is
// a logical, idempotent put per update, so the same stretch of log redone
// in one round or in several leaves the same pool. A caller that wrote
// every log block gained since the last CatchUp passes how many that can be
// at most, and the scan reads no further than the cursor's block and
// those; a negative gained scans to the end.
func (e *Engine) CatchUp(p *sim.Proc, gained int) error {
	f := e.follow
	limit := 0
	if gained >= 0 {
		limit = gained + 1
	}
	scan, err := wal.ScanBlocks(p, e.plat.LogDisk(), f.walCfg, f.cursor, limit, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecUpdate:
			start := len(f.held)
			f.held = append(f.held, rec.Payload...)
			rec.Payload = f.held[start:len(f.held):len(f.held)]
			f.uncommitted = append(f.uncommitted, rec)
		case wal.RecCommit:
			if err := e.redo(p, rec.TxID); err != nil {
				return err
			}
			f.redone++
			e.stats.RedoneTxns.Inc()
		case wal.RecAbort:
			f.settle(rec.TxID, nil)
		}
		if rec.TxID >= e.nextTxID {
			e.nextTxID = rec.TxID + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.cursor = scan.EndLSN
	return nil
}

// redo applies committed transaction txid's held updates to the heap, in
// log order. A key stays a view into its log record, hashed where it lies.
func (e *Engine) redo(p *sim.Proc, txid uint64) error {
	return e.follow.settle(txid, func(u wal.Record) error {
		key, val, err := parseUpdatePayload(u.Payload)
		if err != nil {
			return err
		}
		return put(e.heap, p, maphash.Bytes(keySeed, key), key, val)
	})
}

// settle takes transaction txid's updates out of the held ones, handing
// each to apply (nil for an abort), in log order. A transaction appends its
// updates and its commit record together, so few are ever held, and the
// payload buffer starts over whenever none is.
func (f *follower) settle(txid uint64, apply func(wal.Record) error) error {
	kept := f.uncommitted[:0]
	var err error
	for _, u := range f.uncommitted {
		switch {
		case u.TxID != txid:
			kept = append(kept, u)
		case apply != nil && err == nil:
			err = apply(u)
		}
	}
	clear(f.uncommitted[len(kept):])
	f.uncommitted = kept
	if len(kept) == 0 {
		f.held = f.held[:0]
	}
	return err
}

// Lead ends following: a last CatchUp to the log's end (gained as for
// CatchUp), then the engine opens the log for appends there and serves.
func (e *Engine) Lead(p *sim.Proc, gained int) error {
	if err := e.CatchUp(p, gained); err != nil {
		return err
	}
	f := e.follow
	e.follow = nil

	// 5. Resume the log at its tail. The records from the old horizon on
	// stay needed until a checkpoint folds the redone pages.
	var err error
	e.log, err = wal.OpenAt(p, e.s, e.plat.LogDisk(), f.walCfg, f.startLSN, f.cursor)
	if err != nil {
		return err
	}
	e.log.SetOnDurable(e.onWalDurable)

	// 6. Fold the recovered state into a checkpoint, so the next crash
	// recovers from here. The fold only bounds that next recovery, so after
	// a redo the checkpointer runs it as its first round while the engine
	// serves. A boot that redid nothing folds inline (two control-block
	// writes, no pages), and so does an engine without daemons.
	deferFold := f.redone > 0 && !e.cfg.NoDaemons
	if !deferFold {
		if err := e.Checkpoint(p); err != nil {
			return err
		}
	}
	if !e.cfg.NoDaemons {
		e.spawnDaemons(deferFold)
	}
	return nil
}

// release runs when the engine's simulation closes. An engine kept past
// that keeps what stays readable — Config, Stats and its store's Stats —
// and drops the rest: the index, the lock table, the transaction state, the
// log (Log reads nil) and the platform down to the drives. The methods that
// used them take a live process, and none is left.
func (e *Engine) release() {
	e.plat, e.log, e.heap, e.locks, e.follow = nil, nil, nil, nil, nil
	e.pendingDurable, e.applying, e.txFree = nil, nil, nil
}

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return e.stats }

// Log exposes the WAL (for experiment harnesses); nil once the simulation
// has closed. The log's counters stay readable in Config().Obs's registry.
func (e *Engine) Log() *wal.Log { return e.log }

// Store exposes the page store (for experiment harnesses).
func (e *Engine) Store() *pagestore.Store { return e.store }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// checkRowSize rejects rows that could not be stored in a heap page or
// framed in a single WAL record, before any lock is taken.
func (e *Engine) checkRowSize(key string, val []byte) error {
	if recSize(len(key), valCapFor(len(val))) > e.store.UsableSize()-pageUsedHdr {
		return fmt.Errorf("%w: key %d + val %d bytes vs page", ErrValueTooLarge, len(key), len(val))
	}
	walCfg := wal.Config{BlockSize: e.cfg.WalBlockSize}
	if 3+len(key)+len(val) > walCfg.MaxPayload() {
		return fmt.Errorf("%w: key %d + val %d bytes vs WAL block", ErrValueTooLarge, len(key), len(val))
	}
	return nil
}

// burn models CPU consumption: hold a core for the scaled burst.
func (e *Engine) burn(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	cpu := e.plat.CPU()
	cpu.Acquire(p, 1)
	defer cpu.Release(1)
	p.Sleep(e.plat.CPUTime(d))
}

// Checkpoint flushes dirty pages and advances the WAL horizon. Concurrent
// callers coalesce onto the in-flight checkpoint.
func (e *Engine) Checkpoint(p *sim.Proc) error {
	if e.ckptBusy {
		e.ckptDone.Wait(p)
		return nil
	}
	e.ckptBusy = true
	defer func() {
		e.ckptBusy = false
		e.ckptDone.Broadcast()
	}()

	// The horizon: nothing below it will be rescanned, so every commit
	// below it must be fully in the pages we are about to flush.
	horizon := e.log.AppendedLSN()
	for _, first := range e.applying {
		if first < horizon {
			horizon = first
		}
	}
	// Phase 1: extend the control block's page-scan range to cover every
	// page this checkpoint might flush, keeping the old LSN horizon. A
	// crash mid-flush then still rebuilds over all flushed pages, and redo
	// from the old horizon makes their contents consistent. The loop
	// absorbs pages allocated while the control write itself was in
	// flight, for at most maxControlRounds writes: under a steady stream of
	// inserts a page is allocated during every one (a checkpoint that
	// starts as a promoted engine begins to serve spun for seconds), and
	// the flush then stops at the range the control covers. Every commit
	// below the horizon finished applying before it was taken, so its
	// pages are below that range; the pages past it stay dirty for the
	// next checkpoint.
	var n int64
	for i := 0; i < maxControlRounds; i++ {
		n = e.heap.nextPage
		if err := e.store.WriteControl(p, e.controlBlob(e.ckptLSN, n)); err != nil {
			return err
		}
		if e.heap.nextPage == n {
			break
		}
	}
	if err := e.store.CheckpointBelow(p, n); err != nil {
		return err
	}
	// Phase 2: publish the new horizon now that the pages are durable.
	if err := e.store.WriteControl(p, e.controlBlob(horizon, e.heap.nextPage)); err != nil {
		return err
	}
	e.ckptLSN = horizon
	e.log.SetOldestNeeded(horizon)
	e.stats.Checkpoints.Inc()
	return nil
}

// spawnDaemons starts the background WAL writer (async mode) and the
// periodic checkpointer in the platform's domain. With fold set, the
// checkpointer's first round runs at once: it folds what recovery redid.
func (e *Engine) spawnDaemons(fold bool) {
	dom := e.plat.Domain()
	if e.cfg.CommitMode == CommitAsync {
		e.s.Spawn(dom, e.cfg.Name+".walwriter", func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				p.Sleep(walWriterEvery)
				_ = e.log.Force(p, e.log.AppendedLSN())
			}
		})
	}
	e.s.Spawn(dom, e.cfg.Name+".checkpointer", func(p *sim.Proc) {
		p.SetDaemon(true)
		if fold {
			_ = e.Checkpoint(p)
		}
		for {
			p.Sleep(e.cfg.CheckpointEvery)
			_ = e.Checkpoint(p)
		}
	})
}

func (e *Engine) controlBlob(horizon uint64, nextPage int64) []byte {
	blob := make([]byte, 24)
	binary.LittleEndian.PutUint64(blob[0:8], horizon)
	binary.LittleEndian.PutUint64(blob[8:16], uint64(nextPage))
	binary.LittleEndian.PutUint64(blob[16:24], e.nextTxID)
	return blob
}

// maybeCheckpointForSpace handles ErrLogFull by forcing a checkpoint.
func (e *Engine) maybeCheckpointForSpace(p *sim.Proc, err error) error {
	if !errors.Is(err, wal.ErrLogFull) {
		return err
	}
	if cerr := e.Checkpoint(p); cerr != nil {
		return fmt.Errorf("engine: checkpoint for log space: %v (after %v)", cerr, err)
	}
	return nil
}
