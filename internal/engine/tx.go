package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wal"
)

// ErrTxDone guards against use of a finished transaction.
var ErrTxDone = errors.New("engine: transaction already committed or aborted")

// Tx is a transaction: strict two-phase locking, deferred updates (writes
// stay private until commit), read-your-own-writes.
//
// A Tx is a handle that Begin returns, one per transaction. It is dead once
// the transaction ends in Commit or Abort, or when its process is killed
// inside one of its calls: every call on a dead handle returns ErrTxDone
// (Abort does nothing). The state behind the handle is pooled on the engine
// and serves a later transaction, but txids are never reused, so a dead
// handle cannot reach it. Copies of a handle are the same handle.
type Tx struct {
	s  *txState
	id uint64
}

// txState is one transaction's state. It comes from the engine's freelist
// and keeps its slices when finish hands it back, so a transaction
// allocates nothing once the engine has served as many at once before.
// Transactions are a few dozen rows at most, so "has this key been
// written" is a scan of writes, not a map. Get and Put hash their key once
// (keyHash) and hand the hash to the lock table, the scan of writes and the
// heap.
type txState struct {
	e  *Engine
	p  *sim.Proc
	id uint64 // the running transaction's txid; 0 while the state is free
	// logged says the commit record is in the log: the outcome is the log's.
	logged bool

	locks  []*lock   // lock entries held, in acquisition order
	writes []txWrite // staged writes, one per key (latest wins)
	vals   []byte    // the staged values, back to back
	read   []byte    // the value the last Get returned; each Get reuses it
	redo   []byte    // Commit's redo-record encode buffer
	began  sim.Time
	span   obs.SpanID
}

// txWrite is one staged write; its value is vals[off:off+n].
type txWrite struct {
	key    string
	hash   uint64 // keyHash(key)
	off, n int
}

func (s *txState) val(w txWrite) []byte { return s.vals[w.off : w.off+w.n] }

// state returns the transaction's state, or nil if the handle is dead.
func (t Tx) state() *txState {
	if t.s == nil || t.s.id != t.id {
		return nil
	}
	return t.s
}

// Begin starts a transaction on behalf of process p.
func (e *Engine) Begin(p *sim.Proc) Tx {
	e.nextTxID++
	var s *txState
	if n := len(e.txFree); n > 0 {
		s = e.txFree[n-1]
		e.txFree = e.txFree[:n-1]
	} else {
		s = &txState{e: e}
	}
	s.p, s.id, s.logged, s.began, s.span = p, e.nextTxID, false, p.Now(), 0
	if tr := e.tracer(); tr.Enabled() {
		s.span = tr.NewSpan()
		tr.Emit(p.Now().Duration(), obs.EvTxBegin, s.span, 0, int64(s.id), 0)
	}
	e.burn(p, e.cfg.CPUPerTxn)
	return Tx{s, s.id}
}

func (s *txState) lock(hash uint64, key string, mode LockMode) error {
	lk, fresh, err := s.e.locks.acquire(s.p, s.id, hash, key, mode)
	if fresh {
		s.locks = append(s.locks, lk)
	}
	return err
}

// Get returns the value for key under a shared lock (or the transaction's
// own pending write). The value is a view into a buffer the transaction
// owns: it stays valid until the transaction's next call (Get, Put,
// Commit or Abort), which may overwrite it, so copy what must outlive that.
// No other transaction writes to it, and changing it changes neither the
// stored row nor a staged write.
func (t Tx) Get(key string) ([]byte, bool, error) {
	defer t.unwind()
	s := t.state()
	if s == nil {
		return nil, false, ErrTxDone
	}
	s.e.burn(s.p, s.e.cfg.CPUPerOp)
	hash := keyHash(key)
	if err := s.lock(hash, key, LockS); err != nil {
		return nil, false, err
	}
	if i := s.written(hash, key); i >= 0 {
		s.read = append(s.read[:0], s.val(s.writes[i])...)
		return s.read, true, nil
	}
	s.e.stats.Reads.Inc()
	v, ok, err := s.e.heap.appendGet(s.read[:0], s.p, hash, key)
	if ok {
		s.read = v
	}
	return v, ok, err
}

// Put stages a write under an exclusive lock. It copies val before its
// first yield, so the caller may reuse val as soon as Put returns, and a
// buffer shared by processes that take turns encoding into it is safe to
// pass.
func (t Tx) Put(key string, val []byte) error {
	defer t.unwind()
	s := t.state()
	if s == nil {
		return ErrTxDone
	}
	if err := s.e.checkRowSize(key, val); err != nil {
		return err
	}
	off := len(s.vals)
	s.vals = append(s.vals, val...)
	s.e.burn(s.p, s.e.cfg.CPUPerOp)
	hash := keyHash(key)
	if err := s.lock(hash, key, LockX); err != nil {
		s.vals = s.vals[:off]
		return err
	}
	s.stage(txWrite{key: key, hash: hash, off: off, n: len(val)})
	return nil
}

// written returns the index in writes of the staged write to key, or -1;
// hash is keyHash(key).
func (s *txState) written(hash uint64, key string) int {
	for i := range s.writes {
		if s.writes[i].hash == hash && s.writes[i].key == key {
			return i
		}
	}
	return -1
}

func (s *txState) stage(w txWrite) {
	if i := s.written(w.hash, w.key); i >= 0 {
		s.writes[i] = w
		return
	}
	s.writes = append(s.writes, w)
}

// Commit makes the transaction durable per the engine's commit mode and
// applies its writes. On error the transaction is aborted.
func (t Tx) Commit() error {
	defer t.unwind()
	s := t.state()
	if s == nil {
		return ErrTxDone
	}
	// finish hands the state back, so what the acknowledgement needs is
	// read out first.
	e, p, began, span := s.e, s.p, s.began, s.span
	commitStart := p.Now()

	if len(s.writes) == 0 {
		s.finish()
		e.stats.Commits.Inc()
		e.stats.TxnLatency.Observe(p.Now().Sub(began))
		e.tracer().Emit(p.Now().Duration(), obs.EvTxAck, 0, span, int64(t.id), 0)
		return nil
	}

	// 1. Redo records. wal.Append copies synchronously, so one buffer
	// re-encodes every write, and it stays valid across the checkpoint
	// retry's yield.
	var firstLSN uint64
	for i, w := range s.writes {
		payload := updatePayload(s.redo, w.key, s.val(w))
		s.redo = payload
		lsn, err := e.log.Append(p, wal.RecUpdate, t.id, payload)
		if err != nil {
			if err = e.maybeCheckpointForSpace(p, err); err != nil {
				t.Abort()
				return err
			}
			if lsn, err = e.log.Append(p, wal.RecUpdate, t.id, payload); err != nil {
				t.Abort()
				return fmt.Errorf("engine: log append after checkpoint: %v", err)
			}
		}
		if i == 0 {
			firstLSN = lsn
			e.applying[t.id] = firstLSN
		}
		e.tracer().Emit(p.Now().Duration(), obs.EvWalAppend, 0, span, int64(lsn), int64(len(payload)))
	}
	commitLSN, err := e.log.Append(p, wal.RecCommit, t.id, nil)
	if err != nil {
		delete(e.applying, t.id)
		t.Abort()
		return err
	}
	s.logged = true
	e.tracer().Emit(p.Now().Duration(), obs.EvWalAppend, 0, span, int64(commitLSN), 0)

	// Track the commit until its record is on the log device. Appends are
	// not preempted between the commit-record append and here, so entries
	// stay in commit-LSN order (the callback pops a prefix).
	e.pendingDurable = append(e.pendingDurable, pendingCommit{
		needLSN: commitLSN + 1, txid: t.id, start: commitStart, span: span,
	})

	// 2. Durability: the line the whole evaluation measures.
	if e.cfg.CommitMode == CommitSync {
		if err := e.log.Force(p, commitLSN+1); err != nil {
			e.stats.ForceErrors.Inc()
			e.dropPendingDurable(t.id)
			delete(e.applying, t.id)
			t.Abort()
			// Classify for the client: a transient media error means the
			// commit was aborted cleanly and a retry may well succeed —
			// nothing about the engine is broken. The %w chain keeps the
			// disk sentinel visible to errors.Is all the way up.
			if disk.IsTransient(err) {
				return fmt.Errorf("engine: commit force failed (transient media error, retryable): %w", err)
			}
			return fmt.Errorf("engine: commit force failed: %w", err)
		}
	}

	// 3. Apply to the heap while still holding every lock.
	for _, w := range s.writes {
		if err := put(e.heap, p, w.hash, w.key, s.val(w)); err != nil {
			// The commit record is durable; the in-memory state is now
			// behind it. This is unrecoverable without a restart — the
			// same stance real engines take on apply-phase I/O errors.
			delete(e.applying, t.id)
			s.finish()
			return fmt.Errorf("engine: apply after commit: %v", err)
		}
	}
	delete(e.applying, t.id)
	e.stats.Writes.Add(int64(len(s.writes)))
	s.finish()
	e.stats.Commits.Inc()
	e.stats.CommitLatency.Observe(p.Now().Sub(commitStart))
	e.stats.TxnLatency.Observe(p.Now().Sub(began))
	e.tracer().Emit(p.Now().Duration(), obs.EvTxAck, 0, span, int64(t.id), 0)
	return nil
}

// dropPendingDurable removes txid's entry after a failed force (the commit
// is aborting; its record may never reach the device).
func (e *Engine) dropPendingDurable(txid uint64) {
	for i := len(e.pendingDurable) - 1; i >= 0; i-- {
		if e.pendingDurable[i].txid == txid {
			e.pendingDurable = append(e.pendingDurable[:i], e.pendingDurable[i+1:]...)
			return
		}
	}
}

// Abort discards the transaction's staged writes and releases its locks.
func (t Tx) Abort() {
	defer t.unwind()
	s := t.state()
	if s == nil {
		return
	}
	// A compensating record is unnecessary (no-steal: nothing of ours can
	// be on disk), but an abort record lets recovery drop our updates
	// without waiting for generation end — append best-effort.
	if len(s.writes) > 0 {
		_, _ = s.e.log.Append(s.p, wal.RecAbort, t.id, nil)
	}
	s.e.stats.Aborts.Inc()
	s.finish()
}

// unwind is deferred by every Tx call that can park. A call that does not
// return — its process was killed in it, or it panicked — abandons the
// transaction on the way out, and the unwinding goes on.
func (t Tx) unwind() {
	if r := recover(); r != nil {
		t.abandon()
		panic(r)
	}
}

// abandon releases a killed transaction's locks, and the lock request it
// was waiting in, on an engine whose domain is still up (a client gave up
// on the call). It appends nothing: no-steal, so nothing of the
// transaction's is on a page to undo, and its update records without a
// commit record are dropped by recovery. A transaction whose commit record
// is in the log keeps its locks, since its outcome is the log's; and in a
// dead domain nothing is released: the engine dies with the domain.
func (t Tx) abandon() {
	s := t.state()
	if s == nil || s.logged || s.e.plat.Domain().Dead() {
		return
	}
	e := s.e
	if lk := e.locks.waiting[t.id]; lk != nil {
		delete(e.locks.waiting, t.id)
		// releaseAll drops the queued request, or the grant made at the
		// instant of the kill that lock never got to record. An upgrade
		// waits on an entry the transaction already holds.
		if !slices.Contains(s.locks, lk) {
			s.locks = append(s.locks, lk)
		}
	}
	delete(e.applying, t.id)
	s.finish()
}

// finish releases the transaction's locks and hands its state back to the
// engine's freelist, which kills every handle onto it. The lock and write
// lists are cleared so that a free state keeps no entry or key alive.
func (s *txState) finish() {
	e := s.e
	e.locks.releaseAll(s.id, s.locks)
	clear(s.locks)
	clear(s.writes)
	s.locks, s.writes = s.locks[:0], s.writes[:0]
	s.vals, s.read = s.vals[:0], s.read[:0]
	s.p, s.id = nil, 0
	e.txFree = append(e.txFree, s)
}
