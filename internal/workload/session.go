package workload

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Directory is the client-side cluster map: which engine is the leader,
// in which domain, under which leadership generation. It is plain harness
// memory — the simulated DNS/config service clients consult between
// retries — updated by the cluster's promotion hook and read by every
// session. It is also a push channel: a promotion wakes every session
// attempt still parked on the deposed leader, so clients follow the new
// generation the instant it is published rather than at their next
// timeout. The per-generation first-success timestamps are the raw
// material of the unavailability-window measurement: the window a client
// actually saw runs from fault injection to the first commit the new
// generation served.
type Directory struct {
	gen     int
	name    string
	eng     *engine.Engine
	dom     *sim.Domain
	firstOK map[int]time.Duration
	parked  []*sim.Event // wake-ups of attempts in flight on the current generation
}

// LeaderInfo is one consistent read of the directory.
type LeaderInfo struct {
	Gen  int
	Name string
	Eng  *engine.Engine
	Dom  *sim.Domain
}

// NewDirectory creates an empty directory; Update installs the first
// leader.
func NewDirectory() *Directory {
	return &Directory{firstOK: make(map[int]time.Duration)}
}

// Update publishes a new leadership generation and wakes every attempt
// parked on an older one. Generations must rise.
func (d *Directory) Update(gen int, name string, e *engine.Engine, dom *sim.Domain) {
	if gen <= d.gen && d.gen != 0 {
		return
	}
	d.gen, d.name, d.eng, d.dom = gen, name, e, dom
	for _, ev := range d.parked {
		ev.Fire()
	}
	clear(d.parked)
	d.parked = d.parked[:0]
}

// park registers an attempt's wake-up until unpark: the next Update fires it.
func (d *Directory) park(ev *sim.Event) { d.parked = append(d.parked, ev) }

func (d *Directory) unpark(ev *sim.Event) {
	if i := slices.Index(d.parked, ev); i >= 0 {
		d.parked = slices.Delete(d.parked, i, i+1)
	}
}

// Leader returns the current leadership record.
func (d *Directory) Leader() LeaderInfo {
	return LeaderInfo{Gen: d.gen, Name: d.name, Eng: d.eng, Dom: d.dom}
}

// FirstSuccess returns when the first session commit of generation gen
// completed (virtual time), if any has.
func (d *Directory) FirstSuccess(gen int) (time.Duration, bool) {
	t, ok := d.firstOK[gen]
	return t, ok
}

func (d *Directory) noteSuccess(gen int, at time.Duration) {
	if _, ok := d.firstOK[gen]; !ok {
		d.firstOK[gen] = at
	}
}

// How a session rides out a leader change. The failover campaigns measure
// the takeover window these produce; none of them varies it.
const (
	// sessionOpTimeout bounds one attempt against the current leader before
	// the session abandons it and re-consults the directory.
	sessionOpTimeout = 150 * time.Millisecond
	// sessionMaxAttempts bounds attempts (timeouts, redirects, retries) per
	// operation before it counts as aborted.
	sessionMaxAttempts = 60
	// sessionRetryBackoff is the pause between attempts while the cluster
	// has no reachable leader.
	sessionRetryBackoff = 20 * time.Millisecond
)

// SessionConfig parameterises a failover-aware client pool. Every operation
// counts: there is no warm-up.
type SessionConfig struct {
	Clients  int           // default 1
	Duration time.Duration // virtual time; default 10s
	// Journal, if non-nil, records acked obligations for the audit.
	Journal *Journal
	// Reg hosts the ha.redirects counter; Trace carries EvRedirect marks.
	Reg   *obs.Registry
	Trace *obs.Tracer
}

func (c *SessionConfig) applyDefaults() {
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
}

// RunSessions drives w through a pool of redirect-aware sessions. Unlike
// RunClients, the clients live outside every crash domain: each operation
// is proxied to the session's worker process inside the current leader's
// guest domain. An attempt ends when the worker finishes, when
// sessionOpTimeout passes, or when a promotion is published: a promotion
// sends it straight to the new leader, and a timeout (a leader that died or
// went dark with no takeover yet) costs a backoff and a directory re-read.
// An attempt abandoned either way has its worker killed before it can be
// observed to succeed, so an operation is journaled exactly when its client
// saw the ack. When the pool ends every session kills its idle worker.
func RunSessions(p *sim.Proc, dir *Directory, w Workload, cfg SessionConfig) RunResult {
	cfg.applyDefaults()
	s := p.Sim()
	res := RunResult{TxnLatency: metrics.NewHistogram(w.Name() + ".session.txn")}
	redirects := cfg.Reg.Counter("ha.redirects")
	begin := s.Now()
	deadline := begin.Add(cfg.Duration)
	done := s.NewEvent(w.Name() + ".sessions.done")
	running := cfg.Clients

	for c := 0; c < cfg.Clients; c++ {
		client := c
		name := fmt.Sprintf("session%d", client)
		sess := &session{dir: dir, w: w, cfg: cfg, client: client, opName: name + ".op", redirects: redirects}
		s.Spawn(nil, name, func(cp *sim.Proc) {
			defer func() {
				sess.retire()
				running--
				if running == 0 {
					done.Fire()
				}
			}()
			for cp.Now() < deadline {
				start := cp.Now()
				if err := sess.do(cp); err != nil {
					res.Aborted++
					continue
				}
				res.Committed++
				res.TxnLatency.Observe(cp.Now().Sub(start))
			}
		})
	}
	done.WaitTimeout(p, cfg.Duration+time.Minute)
	end := s.Now()
	if end > deadline {
		end = deadline
	}
	res.Duration = end.Sub(begin)
	return res
}

// session is one client's failover-aware connection state.
//
// A session keeps one worker process in the leader's guest domain and
// proxies every operation to it, so the steady state spawns nothing: the
// worker parks on next between operations, marked daemon only while it is
// idle (an idle worker is not a deadlock; a worker hung in an operation
// is), and the session wakes it with a single event fire — the one wake-up
// Spawn's start event would have been, at the same instant and in the same
// queue position. The worker is killed, and a fresh one spawned by the next
// attempt, when an attempt is abandoned, when the leader's engine or domain
// changes, and when the pool ends.
type session struct {
	dir       *Directory
	w         Workload
	cfg       SessionConfig
	client    int
	opName    string // the worker process's name
	redirects *metrics.Counter
	gen       int // last generation this session talked to

	worker *sim.Proc      // nil until the first attempt and after retire
	eng    *engine.Engine // what the worker runs its operations against
	dom    *sim.Domain    // the worker's domain
	next   *sim.Event     // session → worker: run an operation
	done   *sim.Event     // worker → session: the operation finished
	opErr  error          // the finished operation's result
	ended  bool           // the current attempt's operation finished
}

// dispatch starts one operation on ld: it wakes the session's worker, or
// spawns one in ld's domain if the worker is gone or serves another
// leader.
func (se *session) dispatch(s *sim.Sim, ld LeaderInfo) {
	if se.done == nil {
		se.next, se.done = s.NewEvent(se.opName+".next"), s.NewEvent(se.opName+".done")
	}
	se.done.Reset()
	se.ended = false
	if se.worker != nil && (se.eng != ld.Eng || se.dom != ld.Dom || se.worker.Done()) {
		se.retire()
	}
	if se.worker == nil {
		se.eng, se.dom = ld.Eng, ld.Dom
		se.worker = s.Spawn(ld.Dom, se.opName, se.work)
		return
	}
	se.worker.SetDaemon(false)
	se.next.Fire()
}

// work is the worker's body: run an operation, report it, park until the
// next one.
func (se *session) work(wp *sim.Proc) {
	for {
		se.opErr = DoAs(wp, se.eng, se.w, se.cfg.Journal, se.client)
		se.ended = true
		se.done.Fire()
		wp.SetDaemon(true)
		se.next.Reset()
		se.next.Wait(wp)
	}
}

// retire kills the worker, if there is one; the next attempt spawns a
// fresh one.
func (se *session) retire() {
	if se.worker != nil {
		se.worker.Kill()
		se.worker = nil
	}
}

// do runs one operation to completion or sessionMaxAttempts.
func (se *session) do(cp *sim.Proc) error {
	s := cp.Sim()
	var lastErr error
	for attempt := 0; attempt < sessionMaxAttempts; attempt++ {
		ld := se.dir.Leader()
		if ld.Eng == nil || ld.Dom == nil || ld.Dom.Dead() {
			// No reachable leader: the unavailability window as a client
			// experiences it. Back off and re-consult the directory.
			lastErr = fmt.Errorf("session: no reachable leader (gen %d)", ld.Gen)
			cp.Sleep(sessionRetryBackoff)
			continue
		}
		if ld.Gen != se.gen {
			if se.gen != 0 {
				se.redirects.Inc()
				tr := se.cfg.Trace
				tr.Emit(cp.Now().Duration(), obs.EvRedirect, 0, 0, tr.Label(ld.Name), int64(attempt))
			}
			se.gen = ld.Gen
		}

		// Proxy the op into the leader's guest domain: if the leader dies
		// mid-op the worker dies with it and the timeout fires, unless a
		// promotion wakes the attempt first. An abandoned worker is killed so
		// it cannot ack after the session gave up on it; one that finished at
		// the very instant it was abandoned has already journaled, and counts.
		se.dispatch(s, ld)
		se.dir.park(se.done)
		se.done.WaitTimeout(cp, sessionOpTimeout)
		se.dir.unpark(se.done)
		if !se.ended {
			se.retire()
			if se.dir.Leader().Gen != ld.Gen {
				lastErr = fmt.Errorf("session: %s deposed mid-op (gen %d)", ld.Name, ld.Gen)
				continue
			}
			lastErr = fmt.Errorf("session: op timeout against %s (gen %d)", ld.Name, ld.Gen)
			cp.Sleep(sessionRetryBackoff)
			continue
		}
		opErr := se.opErr
		if opErr == nil {
			se.dir.noteSuccess(ld.Gen, cp.Now().Duration())
			return nil
		}
		lastErr = opErr
		if errors.Is(opErr, engine.ErrLockTimeout) || errors.Is(opErr, engine.ErrDeadlock) {
			// Contention, not failure: brief jittered backoff.
			cp.Sleep(time.Duration(100+s.Rand().Intn(900)) * time.Microsecond)
			continue
		}
		// Anything else — the engine died under us, I/O failed — is worth
		// a directory re-read after a backoff.
		cp.Sleep(sessionRetryBackoff)
	}
	return lastErr
}
