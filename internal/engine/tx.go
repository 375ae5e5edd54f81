package engine

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wal"
)

// ErrTxDone guards against use of a finished transaction.
var ErrTxDone = errors.New("engine: transaction already committed or aborted")

// Tx is a transaction: strict two-phase locking, deferred updates (writes
// stay private until commit), read-your-own-writes.
type Tx struct {
	e    *Engine
	p    *sim.Proc
	id   uint64
	done bool
	// logged says the commit record is in the log: the outcome is the log's.
	logged bool

	// All four are pooled on the engine and handed back by finish, so a
	// transaction allocates only itself. Transactions are a few dozen rows
	// at most, so "has this key been written" is a scan of writes, not a map.
	locks  []string  // keys held, in acquisition order
	writes []txWrite // staged writes, one per key (latest wins)
	vals   []byte    // the staged values, back to back
	read   []byte    // the value the last Get returned; each Get reuses it
	began  sim.Time
	span   obs.SpanID
}

// txWrite is one staged write; its value is vals[off:off+n].
type txWrite struct {
	key    string
	off, n int
	del    bool
}

func (t *Tx) val(w txWrite) []byte { return t.vals[w.off : w.off+w.n] }

// Begin starts a transaction on behalf of process p.
func (e *Engine) Begin(p *sim.Proc) *Tx {
	e.nextTxID++
	t := &Tx{
		e:      e,
		p:      p,
		id:     e.nextTxID,
		locks:  e.lockLists.get(),
		writes: e.writeLists.get(),
		vals:   e.bufs.get(),
		began:  p.Now(),
	}
	if tr := e.tracer(); tr.Enabled() {
		t.span = tr.NewSpan()
		tr.Emit(p.Now().Duration(), obs.EvTxBegin, t.span, 0, int64(t.id), 0)
	}
	e.burn(p, e.cfg.CPUPerTxn)
	return t
}

func (t *Tx) lock(key string, mode LockMode) error {
	fresh, err := t.e.locks.acquire(t.p, t.id, key, mode)
	if fresh {
		t.locks = append(t.locks, key)
	}
	return err
}

// Get returns the value for key under a shared lock (or the transaction's
// own pending write). The value is a view into a buffer the transaction
// owns: it stays valid until the transaction's next call (Get, Put, Delete,
// Commit or Abort), which may overwrite it, so copy what must outlive that.
// No other transaction writes to it, and changing it changes neither the
// stored row nor a staged write.
func (t *Tx) Get(key string) ([]byte, bool, error) {
	defer t.unwind()
	if t.done {
		return nil, false, ErrTxDone
	}
	t.e.burn(t.p, t.e.cfg.CPUPerOp)
	if err := t.lock(key, LockS); err != nil {
		return nil, false, err
	}
	if i := t.written(key); i >= 0 {
		w := t.writes[i]
		if w.del {
			return nil, false, nil
		}
		t.read = append(t.readBuf(), t.val(w)...)
		return t.read, true, nil
	}
	t.e.stats.Reads.Inc()
	v, ok, err := t.e.heap.appendGet(t.readBuf(), t.p, key)
	if ok {
		t.read = v
	}
	return v, ok, err
}

// readBuf returns the read buffer emptied, taking one from the engine's
// pool on the transaction's first read.
func (t *Tx) readBuf() []byte {
	if t.read == nil {
		t.read = t.e.bufs.get()
	}
	return t.read[:0]
}

// Put stages a write under an exclusive lock. It copies val before its
// first yield, so the caller may reuse val as soon as Put returns, and a
// buffer shared by processes that take turns encoding into it is safe to
// pass.
func (t *Tx) Put(key string, val []byte) error {
	defer t.unwind()
	if t.done {
		return ErrTxDone
	}
	if err := t.e.checkRowSize(key, val); err != nil {
		return err
	}
	off := len(t.vals)
	t.vals = append(t.vals, val...)
	t.e.burn(t.p, t.e.cfg.CPUPerOp)
	if err := t.lock(key, LockX); err != nil {
		t.vals = t.vals[:off]
		return err
	}
	t.stage(txWrite{key: key, off: off, n: len(val)})
	return nil
}

// Delete stages a deletion under an exclusive lock.
func (t *Tx) Delete(key string) error {
	defer t.unwind()
	if t.done {
		return ErrTxDone
	}
	t.e.burn(t.p, t.e.cfg.CPUPerOp)
	if err := t.lock(key, LockX); err != nil {
		return err
	}
	t.stage(txWrite{key: key, del: true})
	return nil
}

// written returns the index in writes of the staged write to key, or -1.
func (t *Tx) written(key string) int {
	for i := range t.writes {
		if t.writes[i].key == key {
			return i
		}
	}
	return -1
}

func (t *Tx) stage(w txWrite) {
	if i := t.written(w.key); i >= 0 {
		t.writes[i] = w
		return
	}
	t.writes = append(t.writes, w)
}

// Commit makes the transaction durable per the engine's commit mode and
// applies its writes. On error the transaction is aborted.
func (t *Tx) Commit() error {
	defer t.unwind()
	if t.done {
		return ErrTxDone
	}
	e := t.e
	commitStart := t.p.Now()

	if len(t.writes) == 0 {
		t.finish()
		e.stats.Commits.Inc()
		e.stats.TxnLatency.Observe(t.p.Now().Sub(t.began))
		e.tracer().Emit(t.p.Now().Duration(), obs.EvTxAck, 0, t.span, int64(t.id), 0)
		return nil
	}

	// 1. Redo records. The encode buffer is pooled and owned by this commit
	// until the loop ends: wal.Append copies synchronously, so one buffer
	// re-encodes every write, and it stays valid across the checkpoint
	// retry's yield.
	var firstLSN uint64
	pbuf := e.bufs.get()
	for i, w := range t.writes {
		payload := updatePayload(pbuf, w.key, t.val(w), w.del)
		pbuf = payload
		lsn, err := e.log.Append(t.p, wal.RecUpdate, t.id, payload)
		if err != nil {
			if err = e.maybeCheckpointForSpace(t.p, err); err != nil {
				e.bufs.put(pbuf)
				t.Abort()
				return err
			}
			if lsn, err = e.log.Append(t.p, wal.RecUpdate, t.id, payload); err != nil {
				e.bufs.put(pbuf)
				t.Abort()
				return fmt.Errorf("engine: log append after checkpoint: %v", err)
			}
		}
		if i == 0 {
			firstLSN = lsn
			e.applying[t.id] = firstLSN
		}
		e.tracer().Emit(t.p.Now().Duration(), obs.EvWalAppend, 0, t.span, int64(lsn), int64(len(payload)))
	}
	e.bufs.put(pbuf)
	commitLSN, err := e.log.Append(t.p, wal.RecCommit, t.id, nil)
	if err != nil {
		delete(e.applying, t.id)
		t.Abort()
		return err
	}
	t.logged = true
	e.tracer().Emit(t.p.Now().Duration(), obs.EvWalAppend, 0, t.span, int64(commitLSN), 0)

	// Track the commit until its record is on the log device. Appends are
	// not preempted between the commit-record append and here, so entries
	// stay in commit-LSN order (the callback pops a prefix).
	e.pendingDurable = append(e.pendingDurable, pendingCommit{
		needLSN: commitLSN + 1, txid: t.id, start: commitStart, span: t.span,
	})

	// 2. Durability: the line the whole evaluation measures.
	if e.cfg.CommitMode == CommitSync {
		if err := e.log.Force(t.p, commitLSN+1); err != nil {
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
	for _, w := range t.writes {
		var err error
		if w.del {
			err = e.heap.del(t.p, w.key)
		} else {
			err = e.heap.put(t.p, w.key, t.val(w))
		}
		if err != nil {
			// The commit record is durable; the in-memory state is now
			// behind it. This is unrecoverable without a restart — the
			// same stance real engines take on apply-phase I/O errors.
			delete(e.applying, t.id)
			t.finish()
			return fmt.Errorf("engine: apply after commit: %v", err)
		}
	}
	delete(e.applying, t.id)
	e.stats.Writes.Add(int64(len(t.writes)))
	t.finish()
	e.stats.Commits.Inc()
	e.stats.CommitLatency.Observe(t.p.Now().Sub(commitStart))
	e.stats.TxnLatency.Observe(t.p.Now().Sub(t.began))
	e.tracer().Emit(t.p.Now().Duration(), obs.EvTxAck, 0, t.span, int64(t.id), 0)
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
func (t *Tx) Abort() {
	defer t.unwind()
	if t.done {
		return
	}
	// A compensating record is unnecessary (no-steal: nothing of ours can
	// be on disk), but an abort record lets recovery drop our updates
	// without waiting for generation end — append best-effort.
	if len(t.writes) > 0 {
		_, _ = t.e.log.Append(t.p, wal.RecAbort, t.id, nil)
	}
	t.e.stats.Aborts.Inc()
	t.finish()
}

// unwind is deferred by every Tx call that can park. A call that does not
// return — its process was killed in it, or it panicked — abandons the
// transaction on the way out, and the unwinding goes on.
func (t *Tx) unwind() {
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
func (t *Tx) abandon() {
	e := t.e
	if t.done || t.logged || e.plat.Domain().Dead() {
		return
	}
	if lk := e.locks.waiting[t.id]; lk != nil {
		delete(e.locks.waiting, t.id)
		// releaseAll drops the queued request, or the grant made at the
		// instant of the kill that lock never got to record.
		t.locks = append(t.locks, lk.key)
	}
	delete(e.applying, t.id)
	t.finish()
}

func (t *Tx) finish() {
	t.done = true
	e := t.e
	e.locks.releaseAll(t.id, t.locks)
	e.lockLists.put(t.locks)
	e.writeLists.put(t.writes)
	e.bufs.put(t.vals)
	e.bufs.put(t.read)
	t.locks, t.writes, t.vals, t.read = nil, nil, nil, nil
}
