package sim

import "fmt"

// Mutex is a FIFO, hand-off mutual-exclusion lock on virtual time. Unlock
// passes ownership directly to the longest-waiting process (no barging), so
// waiters cannot starve. If a waiting process is killed it is removed from
// the queue; if ownership had already been handed to it, ownership passes on.
type Mutex struct {
	name   string
	locked bool
	owner  *Proc
	queue  []waiter
}

// NewMutex creates an unlocked mutex.
func (s *Sim) NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

func (m *Mutex) describeWait(waitMode) string { return "mutex:" + m.name }

// Lock acquires the mutex, blocking p in FIFO order.
func (m *Mutex) Lock(p *Proc) {
	p.checkKilled()
	if !m.locked {
		m.locked = true
		m.owner = p
		return
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: mutex %q: recursive lock by %s", m.name, p.name))
	}
	m.queue = append(m.queue, p.newWaiter(m, waitPlain))
	p.abort = m
	p.park()
	// Ownership was assigned by the unlocker before waking us.
}

// abortWait: killed while waiting — either still queued, or ownership was
// handed to the waiter while it was parked; pass it on in that case.
func (m *Mutex) abortWait(w waiter) {
	if m.owner == w.p {
		m.passOn()
		return
	}
	m.removeWaiter(w)
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock(p *Proc) bool {
	p.checkKilled()
	if m.locked {
		return false
	}
	m.locked = true
	m.owner = p
	return true
}

// Unlock releases the mutex, handing it to the next waiter if any. It
// panics if p is not the owner.
func (m *Mutex) Unlock(p *Proc) {
	if !m.locked || m.owner != p {
		panic(fmt.Sprintf("sim: mutex %q: unlock by non-owner %s", m.name, p.name))
	}
	m.passOn()
}

func (m *Mutex) passOn() {
	for len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = popFront(m.queue)
		if next.p.done || next.p.killed {
			continue
		}
		m.owner = next.p
		next.wake()
		return
	}
	m.locked = false
	m.owner = nil
}

func (m *Mutex) removeWaiter(w waiter) {
	for i, other := range m.queue {
		if other == w {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

// Resource is a FIFO counting semaphore: a pool of capacity units that
// processes acquire and release. Grants are strictly in arrival order (a
// large request at the head blocks smaller ones behind it), which makes
// waiting starvation-free. It models CPUs, disk queue slots, and the
// RapiLog buffer budget.
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

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Available returns the units currently free.
func (r *Resource) Available() int64 { return r.avail }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.capacity - r.avail }

// Waiters returns the number of queued acquirers.
func (r *Resource) Waiters() int { return len(r.queue) }

// Acquire takes n units, blocking p in FIFO order until they are available.
// It panics if n exceeds the capacity (the wait could never complete).
func (r *Resource) Acquire(p *Proc, n int64) {
	p.checkKilled()
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d exceeds capacity %d", r.name, n, r.capacity))
	}
	if len(r.queue) == 0 && r.avail >= n {
		r.avail -= n
		return
	}
	r.queue = append(r.queue, resWaiter{w: p.newWaiter(r, waitPlain), n: n})
	p.abort = r
	p.park()
	// Units were debited by the releaser before waking us.
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
		head.w.wake()
	}
}

func (r *Resource) abortWait(w waiter) { r.removeWaiter(w) }

func (r *Resource) removeWaiter(w waiter) {
	for i, other := range r.queue {
		if other.w == w {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			// Removing a large head request may unblock smaller ones.
			r.grant()
			return
		}
	}
}
