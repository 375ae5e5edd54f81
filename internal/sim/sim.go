// Package sim implements a deterministic discrete-event simulation kernel.
//
// Everything in this repository — disk latency, PSU hold-up windows, CPU
// contention, crash injection — runs on virtual time provided by this
// package. Simulated activities are written as ordinary sequential Go code
// inside processes (Proc). Processes are coroutines (see handoff.go): the
// kernel runs exactly one at a time and switches to it and back directly,
// so the simulation is single-threaded in effect: no locks are needed
// around simulation state, and identical seeds produce identical
// executions.
//
// The design follows the classic process-interaction style (SimPy, CSIM):
//
//	s := sim.New(42)
//	s.Spawn(dom, "writer", func(p *sim.Proc) {
//	    p.Sleep(5 * time.Millisecond) // virtual time
//	    ev.Fire()
//	})
//	err := s.Run()
//
// Crash injection is first-class: processes belong to a Domain, and killing
// a domain unwinds every process in it at its current blocking point. This
// models "the guest OS crashed" (guest domain dies, hypervisor domain keeps
// running) and "DC power was lost" (all domains die at once).
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is an instant on the virtual clock, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// killPanic is thrown inside a process to unwind it when it or its domain
// is killed or the simulation is closed. It is recovered by the process
// wrapper and never escapes.
type killPanic struct{ p *Proc }

// Sim is a discrete-event simulation instance.
//
// A Sim and everything spawned on it must be driven from a single goroutine
// (the one calling Run, RunUntil or Step). Processes themselves may freely
// touch shared simulation state: the kernel guarantees only one process runs
// at a time.
type Sim struct {
	now        Time
	seq        uint64
	dispatched uint64
	events     eventHeap
	timerPool  []*timer // recycled timers; the steady state allocates none
	rng        *rand.Rand

	procs   map[int]*Proc
	nextPID int
	running *Proc
	inRun   bool
	closed  bool
	onClose []func() // run by Close, then dropped
	fatal   error
	nextDom int
	root    *Domain

	// What the run loop in progress will still dispatch, which Sleep's fast
	// path (selfWake) must not overrun: nothing later than horizon, nothing
	// at all once until has fired. Outside Run, RunUntil and RunUntilEvent
	// the horizon is notRunning, so a caller driving Step by hand gets one
	// event per call.
	horizon   Time
	until     *Event
	selfWakes uint64 // events selfWake dispatched; the equivalence tests read it
}

const (
	forever    Time = 1<<63 - 1
	notRunning Time = -1
)

// New creates a simulation with the given random seed. The seed fully
// determines the behaviour of s.Rand(); the kernel itself introduces no
// nondeterminism.
func New(seed int64) *Sim {
	return &Sim{
		rng:     rand.New(rand.NewSource(seed)),
		procs:   make(map[int]*Proc),
		horizon: notRunning,
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Dispatched returns the total number of events the kernel has executed.
// The benchmark harness divides it by wall-clock time to report how much
// simulated activity a real second buys.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// newTimer takes a timer from the pool (or allocates one) with its time and
// sequence number set and every payload field cleared.
func (s *Sim) newTimer(t Time) *timer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	if n := len(s.timerPool); n > 0 {
		tm := s.timerPool[n-1]
		s.timerPool = s.timerPool[:n-1]
		tm.t, tm.seq = t, s.seq
		return tm
	}
	return &timer{t: t, seq: s.seq}
}

// recycle clears a popped timer's payload and returns it to the pool.
func (s *Sim) recycle(tm *timer) {
	tm.fn, tm.p, tm.gen, tm.kind = nil, nil, 0, tkFn
	s.timerPool = append(s.timerPool, tm)
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in scheduler context: it must not block, but it may fire events,
// wake processes, and schedule further callbacks.
func (s *Sim) At(t Time, fn func()) {
	tm := s.newTimer(t)
	tm.fn = fn
	s.events.push(tm)
}

// atWake schedules an allocation-free resume of p at t, honoured only if p
// is still parked in wait generation gen when the timer fires. This is the
// kernel's hottest scheduling path: every sleep, event fire, signal
// broadcast and resource grant goes through it.
func (s *Sim) atWake(t Time, p *Proc, gen uint64) *timer {
	tm := s.newTimer(t)
	tm.p, tm.gen, tm.kind = p, gen, tkWake
	s.events.push(tm)
	return tm
}

// atTimeout schedules the expiry of p's current timed wait. The timer is
// remembered on the process so that park can cancel it when the wait
// completes another way.
func (s *Sim) atTimeout(d time.Duration, p *Proc, gen uint64) {
	p.timeout = s.atWake(s.now.Add(d), p, gen)
}

// atStart schedules the first handoff to a freshly spawned process.
func (s *Sim) atStart(p *Proc) {
	tm := s.newTimer(s.now)
	tm.p, tm.kind = p, tkStart
	s.events.push(tm)
}

// atKill schedules a parked process's resume with the kill signal.
func (s *Sim) atKill(p *Proc) {
	tm := s.newTimer(s.now)
	tm.p, tm.kind = p, tkKill
	s.events.push(tm)
}

// After schedules fn to run d from now. See At for constraints on fn.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Spawn creates a process in domain dom and schedules it to start at the
// current virtual time. Spawn order determines start order. The returned
// Proc is also the handle other code can use to inspect the process.
//
// If dom is nil the process belongs to a root domain that is never killed.
func (s *Sim) Spawn(dom *Domain, name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("sim: Spawn on a closed simulation")
	}
	if dom == nil {
		dom = s.rootDomain()
	}
	s.nextPID++
	p := &Proc{
		sim:    s,
		id:     s.nextPID,
		name:   name,
		domain: dom,
		killed: dom.dead, // spawning into a dead domain yields a stillborn proc
	}
	s.procs[p.id] = p
	dom.procs[p.id] = p
	p.start(fn)

	// Start event: hand control to the new process; one killed before it
	// ever ran observes that and finishes without running fn.
	s.atStart(p)
	return p
}

func (s *Sim) rootDomain() *Domain {
	if s.root == nil {
		s.root = &Domain{sim: s, name: "root", procs: make(map[int]*Proc)}
	}
	return s.root
}

// Step executes the next pending event. It reports false when no events
// remain. Called by hand it dispatches exactly one event; under a run loop
// the process it resumes may take further sleeps in place (see selfWake).
func (s *Sim) Step() (bool, error) {
	if s.fatal != nil {
		return false, s.fatal
	}
	tm := s.events.pop()
	if tm == nil {
		return false, nil
	}
	if tm.t > s.now {
		s.now = tm.t
	}
	s.dispatched++
	// Dispatch by kind, recycling the timer before the payload runs so the
	// pool is hot for anything the payload schedules.
	switch tm.kind {
	case tkFn:
		fn := tm.fn
		s.recycle(tm)
		fn()
	case tkWake:
		p, gen := tm.p, tm.gen
		if p.timeout == tm {
			p.timeout = nil // expiring, nothing left to cancel
		}
		s.recycle(tm)
		if p.done || !p.parked || p.waitGen != gen {
			break // stale wake: the wait already completed another way
		}
		s.handoff(p)
	case tkStart:
		p := tm.p
		s.recycle(tm)
		if !p.done {
			s.handoff(p)
		}
	case tkKill:
		p := tm.p
		s.recycle(tm)
		if !p.done && p.parked {
			s.handoff(p)
		}
	}
	if s.fatal != nil {
		return false, s.fatal
	}
	return true, nil
}

// Run executes events until none remain. It returns an error if a process
// panicked or if live processes remain blocked with no pending events
// (a simulation deadlock).
func (s *Sim) Run() error { return s.run(forever) }

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Processes blocked at the cutoff remain blocked; call RunUntil again (or
// Run) to continue.
func (s *Sim) RunUntil(t Time) error {
	err := s.run(t)
	if err == nil && s.now < t {
		s.now = t
	}
	return err
}

// RunFor advances the clock by d. See RunUntil.
func (s *Sim) RunFor(d time.Duration) error { return s.RunUntil(s.now.Add(d)) }

// RunUntilEvent executes events until ev fires. It returns an error if the
// event queue drains first (the event can never fire) or a process fails.
// Unlike RunFor, it does not execute idle ticks past the completion point.
func (s *Sim) RunUntilEvent(ev *Event) error {
	s.horizon, s.until = forever, ev
	defer func() { s.horizon, s.until = notRunning, nil }()
	for !ev.Fired() {
		ok, err := s.Step()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sim: event queue drained before %q fired", ev.label())
		}
	}
	return nil
}

// run executes events with timestamps <= horizon.
func (s *Sim) run(horizon Time) error {
	if s.inRun {
		panic("sim: Run called re-entrantly (from inside a process)")
	}
	s.inRun, s.horizon = true, horizon
	defer func() { s.inRun, s.horizon = false, notRunning }()
	for {
		if s.fatal != nil {
			return s.fatal
		}
		next := s.events.peek()
		if next == nil {
			break
		}
		if next.t > horizon {
			return nil
		}
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	if s.nonDaemonProcs() > 0 {
		return s.deadlockError()
	}
	return nil
}

func (s *Sim) nonDaemonProcs() int {
	n := 0
	for _, p := range s.procs {
		if !p.daemon {
			n++
		}
	}
	return n
}

// deadlockError reports live-but-stuck processes in a stable order.
func (s *Sim) deadlockError() error {
	var stuck []string
	for _, p := range s.procs {
		if p.daemon {
			continue
		}
		stuck = append(stuck, fmt.Sprintf("%s(%d) waiting on %s", p.name, p.id, p.waitingOn()))
	}
	sort.Strings(stuck)
	return &DeadlockError{At: s.now, Procs: stuck}
}

// DeadlockError reports that the event queue drained while processes were
// still blocked.
type DeadlockError struct {
	At    Time
	Procs []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %s: %d blocked procs: %v", e.At, len(e.Procs), e.Procs)
}

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

// Proc is a simulation process: a coroutine interleaved cooperatively with
// all other processes on the virtual clock. All methods must be called from
// the process's own code, except the read-only accessors.
type Proc struct {
	sim    *Sim
	id     int
	name   string
	domain *Domain
	co     coroutine
	done   bool
	parked bool
	killed bool
	daemon bool

	// The current wait: its generation, what it is on (for deadlock
	// reports, rendered only then), its pending timeout if it is a timed
	// wait, and the cleanup to run if the process is killed in it.
	waitGen  uint64
	waitOn   waitTarget
	waitMode waitMode
	timeout  *timer
	abort    aborter
	granted  int64 // units a Resource debited for this wait; owned once resumed
}

// aborter is a wait registration that needs cleaning up if the process is
// killed while parked in it: a primitive with a queue to leave, or a pooled
// queue entry to return. An interface rather than a closure, so registering
// it allocates nothing.
type aborter interface {
	abortWait(w waiter)
}

// waitTarget is a primitive a process can park on. It renders the wait for
// a deadlock report on demand, so registering a wait formats nothing.
type waitTarget interface {
	describeWait(m waitMode) string
}

// waitMode distinguishes the ways of waiting on one primitive.
type waitMode uint8

const (
	waitPlain waitMode = iota
	waitTimed          // Event/Signal WaitTimeout
	waitGet            // Queue.Get
	waitPut            // Queue.Put
)

// waitingOn describes what a parked process is blocked on. Sleep registers
// no target: it is the kernel's hottest wait.
func (p *Proc) waitingOn() string {
	if p.waitOn == nil {
		return "sleep"
	}
	return p.waitOn.describeWait(p.waitMode)
}

// SetDaemon marks the process as background machinery: Run treats a
// simulation whose only remaining blocked processes are daemons as complete
// rather than deadlocked. Daemons should block on signals when idle, not
// poll, or Run will never terminate.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Domain returns the domain the process belongs to.
func (p *Proc) Domain() *Domain { return p.domain }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }

// checkKilled unwinds the process if its domain has died while it was
// running (e.g. it killed its own domain, or Kill was called from scheduler
// context while the process was the running one).
func (p *Proc) checkKilled() {
	if p.killed {
		panic(killPanic{p})
	}
}

// waiter represents one parked wait of a process. It is a plain value —
// primitives embed or copy it into their queues rather than allocating.
// Stale waiters (from a wait that already completed) are ignored, so a
// single wait may safely be woken by several sources (event fire, timeout,
// kill).
type waiter struct {
	p   *Proc
	gen uint64
}

// newWaiter begins a wait on a primitive (named in deadlock reports).
func (p *Proc) newWaiter(on waitTarget, m waitMode) waiter {
	p.waitGen++
	p.waitOn, p.waitMode = on, m
	return waiter{p: p, gen: p.waitGen}
}

// wake schedules the process to resume at the current virtual time if the
// waiter is still current. Safe to call multiple times and from scheduler
// context. Allocation-free: the resume is an inlined tkWake timer, not a
// closure.
func (w waiter) wake() {
	s := w.p.sim
	s.atWake(s.now, w.p, w.gen)
}

func (p *Proc) runAbort() {
	if h := p.abort; h != nil {
		p.abort = nil
		h.abortWait(waiter{p: p, gen: p.waitGen})
	}
}

// Sleep suspends the process for d of virtual time. A non-positive d yields
// the processor, allowing same-time events to run, and returns at the same
// virtual instant.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Inlined wait: no waiter value, no closure, no formatted description —
	// sleep is the kernel's hottest blocking call.
	p.waitGen++
	s := p.sim
	t := s.now.Add(d)
	if s.selfWake(p, t) {
		return
	}
	s.atWake(t, p, p.waitGen)
	p.park()
}

// selfWake is Sleep's fast path. When the wake-up a sleeping process is
// about to queue would be the very next event the run loop dispatches —
// nothing else is due at or before t (an event already queued for t goes
// first, it has the smaller sequence number), and the loop would not stop
// before it — then queueing it, switching to the scheduler, popping it and
// switching back changes nothing but the clock and the event count. selfWake
// makes exactly those changes in place and reports true; the process never
// leaves the CPU. On a commit-bound run two sleeps in five qualify (modelled
// CPU time with no other client due first), each saving a heap push and pop
// and two coroutine switches.
//
// The schedule is the one the slow path produces, to the event: same clock,
// same Dispatched, same sequence numbers for every later timer.
func (s *Sim) selfWake(p *Proc, t Time) bool {
	if t > s.horizon || p.killed || (s.until != nil && s.until.fired) {
		return false
	}
	if next := s.events.peek(); next != nil && next.t <= t {
		return false
	}
	s.seq++
	s.now = t
	s.dispatched++
	s.selfWakes++
	return true
}

// Kill unwinds this one process at its current blocking point — deferred
// functions run — without touching its domain, which stays live. This models
// stopping a single service (a daemon being shut down) rather than a crash.
// It may be called from scheduler context or from another process; a process
// killing itself unwinds immediately. Killing a finished or already-killed
// process is a no-op.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	s := p.sim
	if p == s.running {
		panic(killPanic{p})
	}
	// Parked procs are resumed to observe killed and unwind;
	// spawned-but-unstarted procs observe it at their start event.
	if p.parked {
		s.atKill(p)
	}
}

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

// Domain is a crash boundary: a named group of processes that can be killed
// together. Killing a domain unwinds each member process at its current
// blocking point (its deferred functions run), models a machine or VM
// dying. A dead domain rejects new processes.
type Domain struct {
	sim   *Sim
	name  string
	procs map[int]*Proc
	dead  bool
	gen   int
}

// NewDomain creates a live domain.
func (s *Sim) NewDomain(name string) *Domain {
	s.nextDom++
	return &Domain{sim: s, name: name, procs: make(map[int]*Proc), gen: s.nextDom}
}

// Dead reports whether the domain has been killed.
func (d *Domain) Dead() bool { return d.dead }

// Procs returns the number of live processes in the domain.
func (d *Domain) Procs() int { return len(d.procs) }

// Revive marks a dead domain live again so new processes can be spawned in
// it. Used to model a reboot: the old processes are gone; fresh ones start.
func (d *Domain) Revive() { d.dead = false }

// Kill marks the domain dead and unwinds every process in it. Parked
// processes are resumed with a kill signal in deterministic (id) order; if
// the caller is itself a process in the domain, it is unwound last, when
// Kill panics with the internal kill sentinel (its deferred functions run).
//
// Kill may be called from scheduler context (an At callback) or from a
// process in another domain.
func (d *Domain) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	s := d.sim
	ids := make([]int, 0, len(d.procs))
	for id := range d.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	self := s.running
	suicide := false
	for _, id := range ids {
		p := d.procs[id]
		if p == nil || p.done {
			continue
		}
		p.killed = true
		if p == self {
			suicide = true
			continue
		}
		// Resume parked procs so they observe killed and unwind. Procs
		// that have been spawned but not yet started observe it at their
		// start event.
		if p.parked {
			s.atKill(p)
		}
	}
	if suicide {
		panic(killPanic{self})
	}
}
