package engine

import (
	"errors"
	"fmt"
	"slices"
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

// lockTable is a strict two-phase-locking row lock manager with FIFO grant
// order and timeout-based deadlock resolution. It lives and dies with the
// engine instance: a crash abandons the whole table, which is correct
// because the crash also abandons every in-flight transaction.
//
// Every transaction takes and drops a lock per row it touches, so the table
// recycles what that churns through: lock entries and blocked requests come
// from freelists, holders are a short slice rather than a map, and deadlock
// detection walks the waits-for graph on scratch slices. A deadlock victim
// or a timed-out waiter gets the bare sentinel. The steady state allocates
// nothing. A transaction that holds many rows at once (an audit reading
// every acked row) takes fresh entries from slabs, each with room for its
// first holder.
//
// Entries are keyed as the heap index is, by keyHash, and a hit is checked
// against the entry's key; a key whose hash another held key's entry has
// is in spill. An entry keeps its key only while it is in use, so a free
// entry or request pins no caller's string.
type lockTable struct {
	s       *sim.Sim
	timeout time.Duration
	locks   map[uint64]*lock // keyHash → entry
	spill   map[string]*lock // key → entry, for a key whose hash another entry holds
	// waiting maps a blocked transaction to the lock it waits on, forming
	// the waits-for graph used for exact deadlock detection.
	waiting map[uint64]*lock

	freeLocks []*lock
	slab      []lock // fresh entries, handed out front first
	freeReqs  []*lockReq
	seen, dfs []uint64 // wouldDeadlock scratch
}

type lock struct {
	key     string
	hash    uint64
	spilled bool     // the entry is in spill, not locks
	holders []holder // at most one entry per transaction; starts on first
	queue   []*lockReq
	first   [1]holder
}

// lockSlab is how many lock entries one allocation makes.
const lockSlab = 64

type holder struct {
	txid uint64
	mode LockMode // strongest held
}

type lockReq struct {
	txid    uint64
	mode    LockMode
	key     string
	granted *sim.Event // named by the request itself, see String
}

// String names the request's grant event. It is rendered only if a deadlock
// report has to show what the blocked process waits on.
func (r *lockReq) String() string { return fmt.Sprintf("lock:%s:%d", r.key, r.txid) }

func newLockTable(s *sim.Sim, timeout time.Duration) *lockTable {
	return &lockTable{s: s, timeout: timeout, locks: make(map[uint64]*lock), waiting: make(map[uint64]*lock)}
}

// entry returns key's lock entry, making it if key has none; hash is
// keyHash(key).
func (lt *lockTable) entry(hash uint64, key string) *lock {
	lk := lt.locks[hash]
	if lk != nil && lk.key == key {
		return lk
	}
	if lk != nil || len(lt.spill) > 0 {
		return lt.spilledEntry(hash, key, lk == nil)
	}
	lk = lt.newLock(hash, key)
	lt.locks[hash] = lk
	return lk
}

// spilledEntry is entry for a key that locks' entry for its hash does not
// name: spill holds it, or it is new and goes to locks if hash is free
// there and to spill if not.
func (lt *lockTable) spilledEntry(hash uint64, key string, free bool) *lock {
	if lk := lt.spill[key]; lk != nil {
		return lk
	}
	lk := lt.newLock(hash, key)
	if free {
		lt.locks[hash] = lk
		return lk
	}
	if lt.spill == nil {
		lt.spill = make(map[string]*lock)
	}
	lk.spilled = true
	lt.spill[key] = lk
	return lk
}

func (lt *lockTable) newLock(hash uint64, key string) *lock {
	var lk *lock
	if n := len(lt.freeLocks); n > 0 {
		lk = lt.freeLocks[n-1]
		lt.freeLocks = lt.freeLocks[:n-1]
	} else {
		if len(lt.slab) == 0 {
			lt.slab = make([]lock, lockSlab)
		}
		lk = &lt.slab[0]
		lt.slab = lt.slab[1:]
		lk.holders = lk.first[:0]
	}
	lk.hash, lk.key = hash, key
	return lk
}

func (lt *lockTable) newReq(txid uint64, key string, mode LockMode) *lockReq {
	var r *lockReq
	if n := len(lt.freeReqs); n > 0 {
		r = lt.freeReqs[n-1]
		lt.freeReqs = lt.freeReqs[:n-1]
		r.granted.Reset()
	} else {
		r = &lockReq{}
		r.granted = lt.s.NewEventNamedBy(r)
	}
	r.txid, r.key, r.mode = txid, key, mode
	return r
}

// acquire blocks until txid holds key in at least mode, or times out; hash
// is keyHash(key). It returns key's entry, and fresh reports that txid did
// not hold key before and does now: the caller owes releaseAll that entry.
func (lt *lockTable) acquire(p *sim.Proc, txid, hash uint64, key string, mode LockMode) (lk *lock, fresh bool, err error) {
	lk = lt.entry(hash, key)
	held, holds := lk.held(txid)
	if holds && held >= mode {
		return lk, false, nil // already strong enough
	}
	upgrade := holds // a holder asking for more can only be going S→X
	if lk.compatible(txid, mode) && (len(lk.queue) == 0 || upgrade) {
		// Grant immediately. Upgrades may jump the queue: the holder
		// blocking behind its own lock would deadlock instead.
		lk.grant(txid, mode)
		return lk, !holds, nil
	}
	// Exact deadlock detection: refuse to wait if doing so closes a cycle
	// in the waits-for graph. The requester is the victim and retries.
	if lt.wouldDeadlock(txid, lk) {
		return lk, false, ErrDeadlock
	}
	req := lt.newReq(txid, key, mode)
	if upgrade {
		lk.queue = slices.Insert(lk.queue, 0, req) // upgrades go first
	} else {
		lk.queue = append(lk.queue, req)
	}
	lt.waiting[txid] = lk
	granted := req.granted.WaitTimeout(p, lt.timeout)
	delete(lt.waiting, txid)
	if !granted {
		lk.removeReq(req)
	}
	// Granted or timed out, the request is out of the queue and nothing
	// else refers to it. (A process killed in the wait never gets here; its
	// request stays behind with the abandoned transaction.)
	req.key = ""
	lt.freeReqs = append(lt.freeReqs, req)
	if !granted {
		return lk, false, ErrLockTimeout
	}
	return lk, !holds, nil
}

// appendBlockers appends the transactions a new waiter on lk would wait
// behind: current holders plus already-queued requests.
func (lk *lock) appendBlockers(ids []uint64, txid uint64) []uint64 {
	for _, h := range lk.holders {
		if h.txid != txid {
			ids = append(ids, h.txid)
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
	seen, dfs := lt.seen[:0], lk.appendBlockers(lt.dfs[:0], txid)
	cycle := false
	for len(dfs) > 0 {
		from := dfs[len(dfs)-1]
		dfs = dfs[:len(dfs)-1]
		if from == txid {
			cycle = true
			break
		}
		if slices.Contains(seen, from) {
			continue
		}
		seen = append(seen, from)
		if next := lt.waiting[from]; next != nil {
			dfs = next.appendBlockers(dfs, from)
		}
	}
	lt.seen, lt.dfs = seen, dfs // keep the grown scratch
	return cycle
}

// held returns the mode txid holds the lock in, if it holds it.
func (lk *lock) held(txid uint64) (LockMode, bool) {
	for _, h := range lk.holders {
		if h.txid == txid {
			return h.mode, true
		}
	}
	return 0, false
}

// grant records txid as holding the lock in mode (raising an existing
// grant).
func (lk *lock) grant(txid uint64, mode LockMode) {
	for i := range lk.holders {
		if lk.holders[i].txid == txid {
			lk.holders[i].mode = mode
			return
		}
	}
	lk.holders = append(lk.holders, holder{txid, mode})
}

// compatible reports whether txid may be granted mode alongside the current
// holders (ignoring txid's own existing grant).
func (lk *lock) compatible(txid uint64, mode LockMode) bool {
	for _, h := range lk.holders {
		if h.txid == txid {
			continue
		}
		if mode == LockX || h.mode == LockX {
			return false
		}
	}
	return true
}

func (lk *lock) removeReq(req *lockReq) {
	if i := slices.Index(lk.queue, req); i >= 0 {
		lk.queue = slices.Delete(lk.queue, i, i+1)
	}
}

// releaseAll frees every lock txid holds and cancels its queued requests,
// then grants whatever became possible. held is in acquisition order, so
// which waiter wakes first is a function of the run and not of Go's map
// iteration order; it names each entry once.
func (lt *lockTable) releaseAll(txid uint64, held []*lock) {
	for _, lk := range held {
		lk.holders = slices.DeleteFunc(lk.holders, func(h holder) bool { return h.txid == txid })
		// Drop any still-queued request from this transaction.
		lk.queue = slices.DeleteFunc(lk.queue, func(r *lockReq) bool { return r.txid == txid })
		lk.grantWaiters()
		if len(lk.holders) == 0 && len(lk.queue) == 0 {
			if lk.spilled {
				delete(lt.spill, lk.key)
			} else {
				delete(lt.locks, lk.hash)
			}
			lk.key, lk.spilled = "", false
			lt.freeLocks = append(lt.freeLocks, lk)
		}
	}
}

// grantWaiters grants queued requests in FIFO order until the head is
// incompatible, batching consecutive compatible readers.
func (lk *lock) grantWaiters() {
	for len(lk.queue) > 0 {
		head := lk.queue[0]
		if !head.granted.Fired() { // else: timed out but not yet removed
			if !lk.compatible(head.txid, head.mode) {
				return
			}
			lk.grant(head.txid, head.mode)
			head.granted.Fire()
		}
		lk.queue = slices.Delete(lk.queue, 0, 1)
	}
}
