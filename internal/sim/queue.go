package sim

import "errors"

// ErrClosed is returned by Queue.Put after Close.
var ErrClosed = errors.New("sim: queue closed")

// popFront removes the first element by shifting the rest down one slot.
// Reslicing with s[1:] instead would abandon the backing array's front and
// degenerate into one reallocation per cycle once capacity runs out; the
// shift keeps the array stable, and these queues are short. The slot the
// shift frees is cleared: past the length it would still hold the last
// element, a waiter whose process and closure the queue would keep alive.
func popFront[T any](s []T) []T {
	copy(s, s[1:])
	clear(s[len(s)-1:])
	return s[:len(s)-1]
}

// Queue is a bounded FIFO channel on virtual time: Put blocks while the
// queue is full, Get blocks while it is empty. Hand-off is direct (a Put
// into a queue with waiting getters delivers to the longest-waiting getter),
// so ordering is strict FIFO on both sides. A capacity of zero gives
// rendezvous semantics. Queues model I/O request rings, drain work lists,
// and client/server request channels.
//
// Blocked-side bookkeeping (qGetter/qPutter) is pooled per queue and is its
// own abort hook, so the steady-state blocking paths allocate nothing.
type Queue[T any] struct {
	name    string
	cap     int
	items   []T
	getters []*qGetter[T]
	putters []*qPutter[T]
	closed  bool

	getterPool []*qGetter[T]
	putterPool []*qPutter[T]
}

type qGetter[T any] struct {
	q         *Queue[T]
	w         waiter
	v         T
	ok        bool
	delivered bool
}

type qPutter[T any] struct {
	q        *Queue[T]
	w        waiter
	v        T
	accepted bool
	closed   bool
}

// abortWait: killed while blocked — leave the queue and return to the pool.
func (g *qGetter[T]) abortWait(waiter) {
	g.q.removeGetter(g)
	g.q.freeGetter(g)
}

func (pu *qPutter[T]) abortWait(waiter) {
	pu.q.removePutter(pu)
	pu.q.freePutter(pu)
}

// NewQueue creates a queue with the given capacity (>= 0).
func NewQueue[T any](s *Sim, name string, capacity int) *Queue[T] {
	if capacity < 0 {
		panic("sim: NewQueue: negative capacity")
	}
	return &Queue[T]{name: name, cap: capacity}
}

func (q *Queue[T]) describeWait(m waitMode) string {
	if m == waitGet {
		return "queue:" + q.name + "(get)"
	}
	return "queue:" + q.name + "(put)"
}

// newGetter takes a getter from the pool with its waiter registered.
func (q *Queue[T]) newGetter(p *Proc) *qGetter[T] {
	var g *qGetter[T]
	if n := len(q.getterPool); n > 0 {
		g = q.getterPool[n-1]
		q.getterPool = q.getterPool[:n-1]
	} else {
		g = &qGetter[T]{q: q}
	}
	g.w = p.newWaiter(q, waitGet)
	return g
}

// freeGetter clears a getter (including its payload, so the queue does not
// retain references) and returns it to the pool.
func (q *Queue[T]) freeGetter(g *qGetter[T]) {
	var zero T
	g.w, g.v, g.ok, g.delivered = waiter{}, zero, false, false
	q.getterPool = append(q.getterPool, g)
}

func (q *Queue[T]) newPutter(p *Proc, v T) *qPutter[T] {
	var pu *qPutter[T]
	if n := len(q.putterPool); n > 0 {
		pu = q.putterPool[n-1]
		q.putterPool = q.putterPool[:n-1]
	} else {
		pu = &qPutter[T]{q: q}
	}
	pu.w = p.newWaiter(q, waitPut)
	pu.v = v
	return pu
}

func (q *Queue[T]) freePutter(pu *qPutter[T]) {
	var zero T
	pu.w, pu.v, pu.accepted, pu.closed = waiter{}, zero, false, false
	q.putterPool = append(q.putterPool, pu)
}

// Put appends v, blocking p while the queue is full. It returns ErrClosed if
// the queue is (or becomes, while blocked) closed.
func (q *Queue[T]) Put(p *Proc, v T) error {
	p.checkKilled()
	if q.closed {
		return ErrClosed
	}
	if g := q.nextGetter(); g != nil {
		g.v, g.ok, g.delivered = v, true, true
		g.w.wake()
		return nil
	}
	if len(q.items) < q.cap {
		q.items = append(q.items, v)
		return nil
	}
	pu := q.newPutter(p, v)
	q.putters = append(q.putters, pu)
	p.abort = pu
	p.park()
	closed := pu.closed
	q.freePutter(pu)
	if closed {
		return ErrClosed
	}
	return nil
}

// Get removes and returns the head item, blocking p while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	p.checkKilled()
	if len(q.items) > 0 {
		v = q.items[0]
		q.items = popFront(q.items)
		q.refillFromPutter()
		return v, true
	}
	if pu := q.nextPutter(); pu != nil { // rendezvous (cap == 0)
		v = pu.v
		pu.accepted = true
		pu.w.wake()
		return v, true
	}
	if q.closed {
		return v, false
	}
	g := q.newGetter(p)
	q.getters = append(q.getters, g)
	p.abort = g
	p.park()
	v, ok = g.v, g.ok
	q.freeGetter(g)
	return v, ok
}

// Close marks the queue closed: blocked and future Puts fail with ErrClosed;
// Gets drain remaining items and then report ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, g := range q.getters {
		if !g.delivered {
			g.ok = false
			g.delivered = true
			g.w.wake()
		}
	}
	q.getters = nil
	for _, pu := range q.putters {
		pu.closed = true
		pu.w.wake()
	}
	q.putters = nil
}

// refillFromPutter moves the longest-waiting putter's item into the space
// just freed in the buffer.
func (q *Queue[T]) refillFromPutter() {
	if pu := q.nextPutter(); pu != nil {
		q.items = append(q.items, pu.v)
		pu.accepted = true
		pu.w.wake()
	}
}

func (q *Queue[T]) nextGetter() *qGetter[T] {
	for len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = popFront(q.getters)
		if g.w.p.done || g.w.p.killed || g.delivered {
			// Killed-while-queued getters are freed by their abort hook.
			continue
		}
		return g
	}
	return nil
}

func (q *Queue[T]) nextPutter() *qPutter[T] {
	for len(q.putters) > 0 {
		pu := q.putters[0]
		if pu.w.p.done || pu.w.p.killed || pu.accepted {
			q.putters = popFront(q.putters)
			continue
		}
		q.putters = popFront(q.putters)
		return pu
	}
	return nil
}

func (q *Queue[T]) removeGetter(g *qGetter[T]) {
	for i, other := range q.getters {
		if other == g {
			q.getters = append(q.getters[:i], q.getters[i+1:]...)
			return
		}
	}
}

func (q *Queue[T]) removePutter(pu *qPutter[T]) {
	for i, other := range q.putters {
		if other == pu {
			q.putters = append(q.putters[:i], q.putters[i+1:]...)
			return
		}
	}
}
