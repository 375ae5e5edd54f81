package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// ErrLockTimeout aborts a transaction whose lock wait exceeded the
// configured bound — the backstop behind exact deadlock detection.
var ErrLockTimeout = errors.New("engine: lock wait timeout")

// ErrDeadlock aborts the transaction whose lock request closed a cycle in
// the waits-for graph. The victim should retry.
var ErrDeadlock = errors.New("engine: deadlock detected")

// LockMode is a row lock strength.
type LockMode int

// Lock modes.
const (
	LockS LockMode = iota // shared (readers)
	LockX                 // exclusive (writers)
)

func (m LockMode) String() string {
	if m == LockS {
		return "S"
	}
	return "X"
}

// lockTable is a strict two-phase-locking row lock manager with FIFO grant
// order and timeout-based deadlock resolution. It lives and dies with the
// engine instance: a crash abandons the whole table, which is correct
// because the crash also abandons every in-flight transaction.
type lockTable struct {
	s       *sim.Sim
	timeout time.Duration
	locks   map[string]*lock
	// waiting maps a blocked transaction to the lock it waits on, forming
	// the waits-for graph used for exact deadlock detection.
	waiting map[uint64]*lock
}

type lock struct {
	granted map[uint64]LockMode // txid → strongest held mode
	queue   []*lockReq
}

type lockReq struct {
	txid    uint64
	mode    LockMode
	granted *sim.Event
}

func newLockTable(s *sim.Sim, timeout time.Duration) *lockTable {
	if timeout == 0 {
		timeout = 200 * time.Millisecond
	}
	return &lockTable{s: s, timeout: timeout, locks: make(map[string]*lock), waiting: make(map[uint64]*lock)}
}

// acquire blocks until txid holds key in at least mode, or times out. fresh
// reports that txid did not hold key before and does now: the caller owes
// releaseAll that key.
func (lt *lockTable) acquire(p *sim.Proc, txid uint64, key string, mode LockMode) (fresh bool, err error) {
	lk := lt.locks[key]
	if lk == nil {
		lk = &lock{granted: make(map[uint64]LockMode)}
		lt.locks[key] = lk
	}
	held, holds := lk.granted[txid]
	if holds && held >= mode {
		return false, nil // already strong enough
	}
	if lk.compatible(txid, mode) && (len(lk.queue) == 0 || lk.upgradeOf(txid, mode)) {
		// Grant immediately. Upgrades may jump the queue: the holder
		// blocking behind its own lock would deadlock instead.
		lk.granted[txid] = mode
		return !holds, nil
	}
	// Exact deadlock detection: refuse to wait if doing so closes a cycle
	// in the waits-for graph. The requester is the victim and retries.
	if lt.wouldDeadlock(txid, lk) {
		return false, fmt.Errorf("%w: key %q mode %v tx %d", ErrDeadlock, key, mode, txid)
	}
	req := &lockReq{txid: txid, mode: mode, granted: lt.s.NewEvent(fmt.Sprintf("lock:%s:%d", key, txid))}
	if lk.upgradeOf(txid, mode) {
		lk.queue = append([]*lockReq{req}, lk.queue...) // upgrades go first
	} else {
		lk.queue = append(lk.queue, req)
	}
	lt.waiting[txid] = lk
	granted := req.granted.WaitTimeout(p, lt.timeout)
	delete(lt.waiting, txid)
	if !granted {
		lk.removeReq(req)
		return false, fmt.Errorf("%w: key %q mode %v tx %d", ErrLockTimeout, key, mode, txid)
	}
	return !holds, nil
}

// blockerIDs returns the transactions a new waiter on lk would wait
// behind: current holders plus already-queued requests.
func (lk *lock) blockerIDs(txid uint64) []uint64 {
	var ids []uint64
	for other := range lk.granted {
		if other != txid {
			ids = append(ids, other)
		}
	}
	for _, r := range lk.queue {
		if r.txid != txid {
			ids = append(ids, r.txid)
		}
	}
	return ids
}

// wouldDeadlock reports whether txid waiting on lk closes a waits-for
// cycle. Exact and cheap: the simulation kernel is single-threaded, so the
// graph cannot change mid-walk.
func (lt *lockTable) wouldDeadlock(txid uint64, lk *lock) bool {
	seen := make(map[uint64]bool)
	var reaches func(from uint64) bool
	reaches = func(from uint64) bool {
		if from == txid {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		next := lt.waiting[from]
		if next == nil {
			return false
		}
		for _, b := range next.blockerIDs(from) {
			if reaches(b) {
				return true
			}
		}
		return false
	}
	for _, b := range lk.blockerIDs(txid) {
		if reaches(b) {
			return true
		}
	}
	return false
}

// upgradeOf reports whether (txid, mode) is an S→X upgrade by a current
// holder.
func (lk *lock) upgradeOf(txid uint64, mode LockMode) bool {
	held, ok := lk.granted[txid]
	return ok && mode == LockX && held == LockS
}

// compatible reports whether txid may be granted mode alongside the current
// holders (ignoring txid's own existing grant).
func (lk *lock) compatible(txid uint64, mode LockMode) bool {
	for other, held := range lk.granted {
		if other == txid {
			continue
		}
		if mode == LockX || held == LockX {
			return false
		}
	}
	return true
}

func (lk *lock) removeReq(req *lockReq) {
	for i, r := range lk.queue {
		if r == req {
			lk.queue = append(lk.queue[:i], lk.queue[i+1:]...)
			return
		}
	}
}

// releaseAll frees every lock txid holds and cancels its queued requests,
// then grants whatever became possible. keys is in acquisition order, so
// which waiter wakes first is a function of the run and not of Go's map
// iteration order.
func (lt *lockTable) releaseAll(txid uint64, keys []string) {
	for _, key := range keys {
		lk := lt.locks[key]
		if lk == nil {
			continue
		}
		delete(lk.granted, txid)
		// Drop any still-queued request from this transaction.
		for i := 0; i < len(lk.queue); {
			if lk.queue[i].txid == txid {
				lk.queue = append(lk.queue[:i], lk.queue[i+1:]...)
				continue
			}
			i++
		}
		lk.grantWaiters()
		if len(lk.granted) == 0 && len(lk.queue) == 0 {
			delete(lt.locks, key)
		}
	}
}

// grantWaiters grants queued requests in FIFO order until the head is
// incompatible, batching consecutive compatible readers.
func (lk *lock) grantWaiters() {
	for len(lk.queue) > 0 {
		head := lk.queue[0]
		if head.granted.Fired() { // timed out but not yet removed
			lk.queue = lk.queue[1:]
			continue
		}
		if !lk.compatible(head.txid, head.mode) {
			return
		}
		lk.granted[head.txid] = head.mode
		lk.queue = lk.queue[1:]
		head.granted.Fire()
	}
}
