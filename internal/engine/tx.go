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

	locks    []string // keys held, in acquisition order
	writes   []txWrite
	writeIdx map[string]int // key → index in writes (latest wins)
	began    sim.Time
	span     obs.SpanID
}

type txWrite struct {
	key string
	val []byte
	del bool
}

// Begin starts a transaction on behalf of process p.
func (e *Engine) Begin(p *sim.Proc) *Tx {
	e.nextTxID++
	t := &Tx{
		e:        e,
		p:        p,
		id:       e.nextTxID,
		locks:    e.getLockList(),
		writeIdx: make(map[string]int),
		began:    p.Now(),
	}
	if tr := e.tracer(); tr.Enabled() {
		t.span = tr.NewSpan()
		tr.Emit(p.Now().Duration(), obs.EvTxBegin, t.span, 0, int64(t.id), 0)
	}
	e.burn(p, e.cfg.CPUPerTxn)
	return t
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

func (t *Tx) lock(key string, mode LockMode) error {
	fresh, err := t.e.locks.acquire(t.p, t.id, key, mode)
	if fresh {
		t.locks = append(t.locks, key)
	}
	return err
}

// Get returns the value for key under a shared lock (or the transaction's
// own pending write).
func (t *Tx) Get(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	t.e.burn(t.p, t.e.cfg.CPUPerOp)
	if err := t.lock(key, LockS); err != nil {
		return nil, false, err
	}
	if i, ok := t.writeIdx[key]; ok {
		w := t.writes[i]
		if w.del {
			return nil, false, nil
		}
		return append([]byte(nil), w.val...), true, nil
	}
	t.e.stats.Reads.Inc()
	return t.e.heap.get(t.p, key)
}

// Put stages a write under an exclusive lock.
func (t *Tx) Put(key string, val []byte) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.e.checkRowSize(key, val); err != nil {
		return err
	}
	t.e.burn(t.p, t.e.cfg.CPUPerOp)
	if err := t.lock(key, LockX); err != nil {
		return err
	}
	t.stage(txWrite{key: key, val: append([]byte(nil), val...)})
	return nil
}

// Delete stages a deletion under an exclusive lock.
func (t *Tx) Delete(key string) error {
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

func (t *Tx) stage(w txWrite) {
	if i, ok := t.writeIdx[w.key]; ok {
		t.writes[i] = w
		return
	}
	t.writeIdx[w.key] = len(t.writes)
	t.writes = append(t.writes, w)
}

// Commit makes the transaction durable per the engine's commit mode and
// applies its writes. On error the transaction is aborted.
func (t *Tx) Commit() error {
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
	pbuf := e.getPayloadBuf()
	for i, w := range t.writes {
		payload := updatePayload(pbuf, w.key, w.val, w.del)
		pbuf = payload
		lsn, err := e.log.Append(t.p, wal.RecUpdate, t.id, payload)
		if err != nil {
			if err = e.maybeCheckpointForSpace(t.p, err); err != nil {
				e.putPayloadBuf(pbuf)
				t.Abort()
				return err
			}
			if lsn, err = e.log.Append(t.p, wal.RecUpdate, t.id, payload); err != nil {
				e.putPayloadBuf(pbuf)
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
	e.putPayloadBuf(pbuf)
	commitLSN, err := e.log.Append(t.p, wal.RecCommit, t.id, nil)
	if err != nil {
		delete(e.applying, t.id)
		t.Abort()
		return err
	}
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
			err = e.heap.put(t.p, w.key, w.val)
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

func (t *Tx) finish() {
	t.done = true
	t.e.locks.releaseAll(t.id, t.locks)
	t.e.putLockList(t.locks)
	t.locks = nil
}
