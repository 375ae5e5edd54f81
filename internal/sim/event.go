package sim

import (
	"fmt"
	"time"
)

// Event is a one-shot broadcast condition: processes wait until someone
// fires it. Waiting on an already-fired event returns immediately. Events
// are the basic completion signal used throughout the simulation (I/O done,
// power restored, drain finished).
type Event struct {
	name    string
	namer   fmt.Stringer // replaces name when set; rendered on demand
	fired   bool
	waiters []waiter
}

// NewEvent creates an unfired event.
func (s *Sim) NewEvent(name string) *Event { return &Event{name: name} }

// NewEventNamedBy creates an unfired event whose name is rendered only when
// something asks for it (a deadlock report, an error message). Hot paths
// that create an event per blocked request use it to format nothing.
func (s *Sim) NewEventNamedBy(namer fmt.Stringer) *Event { return &Event{namer: namer} }

// label renders the event's name for a deadlock report or an error.
func (e *Event) label() string {
	if e.namer != nil {
		return e.namer.String()
	}
	return e.name
}

func (e *Event) describeWait(m waitMode) string {
	if m == waitTimed {
		return "event:" + e.label() + "(timeout)"
	}
	return "event:" + e.label()
}

// Reset returns the event to the unfired state so that its owner can reuse
// it. Nothing may still be waiting on it.
func (e *Event) Reset() {
	e.fired = false
	e.waiters = e.waiters[:0]
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire fires the event, waking all waiters. Firing twice is a no-op.
// Fire may be called from scheduler context or from any process.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	// wake only schedules timers, so nothing appends while we iterate; the
	// (cleared) backing array stays for an owner that Resets and reuses the
	// event.
	for _, w := range e.waiters {
		w.wake()
	}
	clear(e.waiters)
	e.waiters = e.waiters[:0]
}

// Wait blocks p until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		p.checkKilled()
		return
	}
	w := p.newWaiter(e, waitPlain)
	e.waiters = append(e.waiters, w)
	// No abort hook needed: stale waiters are skipped at wake time.
	p.park()
}

// WaitTimeout blocks p until the event fires or d elapses. It reports
// whether the event had fired by the time p resumed. If the event fires at
// the same instant the timeout expires, whichever was scheduled first wins
// the wake-up, but the return value still reflects the fired state — so a
// same-instant fire reports true.
func (e *Event) WaitTimeout(p *Proc, d time.Duration) bool {
	if e.fired {
		p.checkKilled()
		return true
	}
	if d <= 0 {
		p.checkKilled()
		return false
	}
	w := p.newWaiter(e, waitTimed)
	e.waiters = append(e.waiters, w)
	p.sim.atTimeout(d, p, w.gen)
	p.park()
	return e.fired
}

// Signal is a repeating broadcast condition (a monitor condition variable
// with broadcast-only semantics): each Broadcast wakes every process
// currently waiting; future waiters block until the next Broadcast.
type Signal struct {
	name    string
	waiters []waiter
}

// NewSignal creates a signal.
func (s *Sim) NewSignal(name string) *Signal { return &Signal{name: name} }

func (g *Signal) describeWait(m waitMode) string {
	if m == waitTimed {
		return "signal:" + g.name + "(timeout)"
	}
	return "signal:" + g.name
}

// Broadcast wakes all current waiters.
func (g *Signal) Broadcast() {
	ws := g.waiters
	// Reuse the backing array: wake only schedules timers, so no waiter can
	// be appended while we iterate.
	g.waiters = g.waiters[:0]
	for _, w := range ws {
		w.wake()
	}
}

// Wait blocks p until the next Broadcast.
func (g *Signal) Wait(p *Proc) {
	w := p.newWaiter(g, waitPlain)
	g.waiters = append(g.waiters, w)
	p.park()
}

// WaitTimeout blocks p until the next Broadcast or until d elapses,
// reporting whether a Broadcast woke it.
func (g *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	if d <= 0 {
		p.checkKilled()
		return false
	}
	w := p.newWaiter(g, waitTimed)
	g.waiters = append(g.waiters, w)
	// The broadcast and the timer wake the same waiter; distinguish by
	// draining: if we are still registered at resume time the broadcast did
	// not happen.
	p.sim.atTimeout(d, p, w.gen)
	p.park()
	for _, other := range g.waiters {
		if other == w {
			g.remove(w)
			return false
		}
	}
	return true
}

func (g *Signal) remove(w waiter) {
	for i, other := range g.waiters {
		if other == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}
