package sim

// timer is one scheduled occurrence on the virtual clock: either a
// scheduler callback (fn) or an inlined process resume (p + gen + kind).
// The split exists for allocation discipline: process wake-ups are by far
// the most common event, and representing them as plain fields lets the
// kernel dispatch them without allocating a closure per wake. seq breaks
// ties so that same-time events run in scheduling order (FIFO), which keeps
// the simulation deterministic.
//
// Timers are pooled: Step returns each popped timer to the Sim's freelist,
// so a steady-state simulation schedules millions of events with zero
// allocations. idx is the timer's position in the heap while it is queued,
// which is what lets a timed wait that completed early take its timeout
// back out (eventHeap.remove) instead of leaving it to expire.
type timer struct {
	t    Time
	seq  uint64
	fn   func() // tkFn only
	p    *Proc  // tkWake, tkStart, tkKill
	gen  uint64 // tkWake: the wait generation this wake targets
	idx  int
	kind uint8
}

// timer kinds.
const (
	tkFn    uint8 = iota // run fn in scheduler context
	tkWake               // resume p if still parked in wait generation gen
	tkStart              // first handoff to a freshly spawned process
	tkKill               // resume a parked p with the kill signal
)

// eventHeap is a binary min-heap of timers ordered by (t, seq). It is
// hand-rolled rather than wrapping container/heap to avoid interface
// boxing on the hottest path in the kernel. Sifting moves a hole rather
// than swapping, so each level costs one store (plus the moved timer's idx).
type eventHeap struct {
	items []*timer
}

func before(a, b *timer) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(tm *timer) {
	h.items = append(h.items, nil)
	h.up(len(h.items)-1, tm)
}

func (h *eventHeap) peek() *timer {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *eventHeap) pop() *timer {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.remove(top)
	return top
}

// remove takes a queued timer out of the heap, wherever it sits: the last
// timer fills its slot and sifts to where it belongs.
func (h *eventHeap) remove(tm *timer) {
	n := len(h.items) - 1
	last := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if tm == last {
		return
	}
	if before(last, tm) {
		h.up(tm.idx, last)
	} else {
		h.down(tm.idx, last)
	}
}

// up places tm at or above the hole i.
func (h *eventHeap) up(i int, tm *timer) {
	for i > 0 {
		parent := (i - 1) / 2
		pt := h.items[parent]
		if !before(tm, pt) {
			break
		}
		h.items[i], pt.idx = pt, i
		i = parent
	}
	h.items[i], tm.idx = tm, i
}

// down places tm at or below the hole i.
func (h *eventHeap) down(i int, tm *timer) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		ct := h.items[c]
		if r := c + 1; r < n && before(h.items[r], ct) {
			c, ct = r, h.items[r]
		}
		if !before(ct, tm) {
			break
		}
		h.items[i], ct.idx = ct, i
		i = c
	}
	h.items[i], tm.idx = tm, i
}
