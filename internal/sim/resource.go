package sim

import (
	"fmt"
	"slices"
)

// Resource is a FIFO counting semaphore: a pool of capacity units that
// processes acquire and release. Grants are strictly in arrival order (a
// large request at the head blocks smaller ones behind it) and handed over
// directly by the releaser (no barging), which makes waiting
// starvation-free. It is the kernel's only lock: it models CPU cores, flash
// channels and disk cache space, and with capacity 1 it is the mutex around
// the HDD arm and the RapiLog logger's backing writes.
//
// The kill rule: a grant not yet resumed is returned. A waiter killed while
// queued simply leaves; one killed after the releaser debited its units and
// woke it, but before it ran again, gives them back and the grant passes
// on. Units a process holds when it dies are its own to release — pair
// Acquire with a deferred Release.
type Resource struct {
	name     string
	capacity int64
	avail    int64
	queue    []resWaiter
}

type resWaiter struct {
	w waiter
	n int64
}

// NewResource creates a resource with the given capacity, all available.
func (s *Sim) NewResource(name string, capacity int64) *Resource {
	if capacity < 0 {
		panic("sim: NewResource: negative capacity")
	}
	return &Resource{name: name, capacity: capacity, avail: capacity}
}

func (r *Resource) describeWait(waitMode) string { return "resource:" + r.name }

// Available returns the units currently free.
func (r *Resource) Available() int64 { return r.avail }

// Waiters returns the number of queued acquirers.
func (r *Resource) Waiters() int { return len(r.queue) }

// Acquire takes n units, blocking p in FIFO order until they are available.
// It panics if n exceeds the capacity (the wait could never complete).
func (r *Resource) Acquire(p *Proc, n int64) { r.acquire(p, n, false) }

// AcquireFirst is Acquire for the one request that must be served next: p
// queues ahead of every waiter, so the next grant is its.
func (r *Resource) AcquireFirst(p *Proc, n int64) { r.acquire(p, n, true) }

func (r *Resource) acquire(p *Proc, n int64, first bool) {
	p.checkKilled()
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d exceeds capacity %d", r.name, n, r.capacity))
	}
	if (first || len(r.queue) == 0) && r.avail >= n {
		r.avail -= n
		return
	}
	at := len(r.queue)
	if first {
		at = 0
	}
	r.queue = slices.Insert(r.queue, at, resWaiter{w: p.newWaiter(r, waitPlain), n: n})
	p.abort = r
	p.park()
	// Units were debited by the releaser before waking us; resumed, they
	// are ours.
	p.granted = 0
}

// TryAcquire takes n units if immediately available (and no earlier waiter
// is queued), reporting success.
func (r *Resource) TryAcquire(p *Proc, n int64) bool {
	p.checkKilled()
	if n <= 0 {
		return true
	}
	if len(r.queue) == 0 && r.avail >= n {
		r.avail -= n
		return true
	}
	return false
}

// Release returns n units and grants queued acquirers in FIFO order.
// Release may be called from scheduler context or any process.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	r.avail += n
	if r.avail > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: release overflows capacity (%d > %d)", r.name, r.avail, r.capacity))
	}
	r.grant()
}

func (r *Resource) grant() {
	for len(r.queue) > 0 {
		head := r.queue[0]
		if head.w.p.done || head.w.p.killed {
			r.queue = popFront(r.queue)
			continue
		}
		if r.avail < head.n {
			return
		}
		r.avail -= head.n
		r.queue = popFront(r.queue)
		head.w.p.granted = head.n
		head.w.wake()
	}
}

// abortWait: killed while waiting — either already granted (see the kill
// rule above) or still queued.
func (r *Resource) abortWait(w waiter) {
	if n := w.p.granted; n > 0 {
		w.p.granted = 0
		r.Release(n)
		return
	}
	for i, other := range r.queue {
		if other.w == w {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			// Removing a large head request may unblock smaller ones.
			r.grant()
			return
		}
	}
}
