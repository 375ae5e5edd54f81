//go:build go1.23

// The hand-off between the scheduler and processes. The root go.mod stays at
// go 1.22 (the benchmark module pins it), so this file opts into go1.23 for
// package iter by build constraint; there is no other implementation.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// coroutine is what a process runs on. Every process is a pull-style
// coroutine (iter.Pull): the scheduler resumes it with next, the process
// gives control back with yield, and the runtime switches between the two
// directly — no channel, no trip through the Go scheduler, and never two
// of them runnable at once.
//
// Scheduler context — Step, At callbacks, the Run loop — stays on the
// goroutine that called Run, RunUntil or Step. That is what keeps a panic in
// an At callback surfacing from Run in the caller's frame, lets tests drive
// Step from the test goroutine, and makes Close an ordinary call: nothing
// the kernel owns runs unless the caller is inside one of those functions.
type coroutine struct {
	next  func() (struct{}, bool) // scheduler → process: run until it parks or finishes
	stop  func()                  // finish a parked process; an unstarted one never runs
	yield func(struct{}) bool     // process → scheduler; false once the process is being stopped
}

// start creates p's coroutine. Nothing runs until the first handoff.
func (p *Proc) start(fn func(p *Proc)) {
	p.co.next, p.co.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.co.yield = yield
		if !p.killed {
			p.run(fn)
		}
		p.exit()
	})
}

// run executes the process body, absorbing the kill unwind and recording
// any other panic as the simulation's fatal error.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killPanic); !ok {
				p.sim.fatal = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
	}()
	fn(p)
}

// exit retires a finished (or never-started) process.
func (p *Proc) exit() {
	p.done = true
	p.parked = false
	delete(p.sim.procs, p.id)
	delete(p.domain.procs, p.id)
}

// handoff transfers control from the scheduler to process p and returns
// when p parks or finishes. A killed p notices by itself on resuming.
func (s *Sim) handoff(p *Proc) {
	s.running = p
	p.co.next()
	s.running = nil
}

// park blocks the process until a waiter wakes it. It must only be called by
// the process itself, after registering the wait with a wake source. If the
// process is killed while parked, the registered abort hook runs (so
// primitives can clean their queues) and the process unwinds. A timed wait
// that ends any other way than by its timeout takes the timeout back out of
// the event heap, so abandoned timers do not accumulate until they expire.
func (p *Proc) park() {
	if !p.killed {
		p.parked = true
		if !p.co.yield(struct{}{}) {
			p.killed = true // the simulation is closing
		}
		p.parked = false
	}
	p.waitOn = nil
	if tm := p.timeout; tm != nil {
		p.timeout = nil
		p.sim.events.remove(tm)
		p.sim.recycle(tm)
	}
	if p.killed {
		p.runAbort()
		panic(killPanic{p})
	}
	p.abort = nil
}

// Close ends the simulation and releases everything it holds: every live
// process is killed in id order — a parked one unwinds from its blocking
// point exactly as if its domain had been killed (abort hooks and deferred
// functions run), one that never started never runs — and pending events
// are dropped. Processes spawned by those deferred functions are closed the
// same way. Then the close hooks run (see OnClose). Afterwards no process is
// live, no goroutine of this simulation remains, and the Sim must not be used
// again.
//
// Close must be called from outside the simulation (not from a process or
// an At callback). Closing twice is a no-op.
func (s *Sim) Close() {
	if s.inRun || s.running != nil {
		panic("sim: Close called from inside the simulation")
	}
	if s.closed {
		return
	}
	for len(s.procs) > 0 {
		ids := make([]int, 0, len(s.procs))
		for id := range s.procs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p := s.procs[id]
			if p == nil {
				continue
			}
			p.killed = true
			s.running = p
			p.co.stop()
			s.running = nil
			p.exit() // a no-op unless p had never started
		}
	}
	s.events = eventHeap{}
	s.timerPool = nil
	s.closed = true
	hooks := s.onClose
	s.onClose = nil
	for _, fn := range hooks {
		fn()
	}
}

// OnClose registers fn to run when the simulation closes: once, in
// registration order, after every process has unwound (those spawned by
// deferred functions too) and the pending events are dropped. A model
// object that outlives its simulation registers its release here, so that
// keeping it keeps only what stays readable. Registering on a closed
// simulation panics, as Spawn does.
func (s *Sim) OnClose(fn func()) {
	if s.closed {
		panic("sim: OnClose on a closed simulation")
	}
	s.onClose = append(s.onClose, fn)
}
