package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scriptedOp is a workload whose every operation runs the function its
// engine is mapped to; it never touches the engine, so engines here are
// identities only.
type scriptedOp map[*engine.Engine]func(p *sim.Proc, j *Journal)

func (w scriptedOp) Name() string                             { return "scripted" }
func (w scriptedOp) Load(p *sim.Proc, e *engine.Engine) error { return nil }
func (w scriptedOp) Do(p *sim.Proc, e *engine.Engine, j *Journal) error {
	w[e](p, j)
	return nil
}

// TestPromotionWakesAttemptParkedOnDeposedLeader: an attempt stuck on the
// generation-1 leader resumes at the instant generation 2 is published, not
// at sessionOpTimeout; its killed worker journals nothing, and an op that
// finishes at the very instant of the promotion is journaled exactly once,
// whichever of the two the scheduler runs first.
func TestPromotionWakesAttemptParkedOnDeposedLeader(t *testing.T) {
	const promoteAt = 40 * time.Millisecond
	cases := []struct {
		name string
		// promote publishes generation 2; release lets the generation-1
		// op finish (journaling "old") at the same instant, in the order
		// the case wants.
		promote func(update func(), release *sim.Event)
		want    string
	}{
		{"deposed leader never answers", func(update func(), _ *sim.Event) { update() }, "new"},
		{"op finishes just after the promotion", func(update func(), release *sim.Event) { update(); release.Fire() }, "new"},
		{"op finishes just before the promotion", func(update func(), release *sim.Event) { release.Fire(); update() }, "old"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			defer s.Close()
			oldEng, newEng := &engine.Engine{}, &engine.Engine{}
			oldDom, newDom := s.NewDomain("old"), s.NewDomain("new")
			release := s.NewEvent("release")
			w := scriptedOp{
				oldEng: func(p *sim.Proc, j *Journal) {
					release.Wait(p)
					j.Add("old", nil)
				},
				newEng: func(p *sim.Proc, j *Journal) { j.Add("new", nil) },
			}
			dir := NewDirectory()
			dir.Update(1, "old", oldEng, oldDom)
			j := NewJournal()
			redirects := new(metrics.Counter)
			se := &session{dir: dir, w: w, cfg: SessionConfig{Journal: j}, opName: "op", redirects: redirects}

			var doneAt time.Duration
			var opErr error
			s.Spawn(nil, "client", func(p *sim.Proc) {
				opErr = se.do(p)
				doneAt = p.Now().Duration()
			})
			s.Spawn(nil, "operator", func(p *sim.Proc) {
				p.Sleep(promoteAt)
				tc.promote(func() { dir.Update(2, "new", newEng, newDom) }, release)
				// A worker left alive on the deposed leader would journal now.
				p.Sleep(time.Second)
				release.Fire()
			})
			if err := s.RunFor(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if opErr != nil {
				t.Fatalf("op failed: %v", opErr)
			}
			if doneAt != promoteAt {
				t.Fatalf("op completed at %v, want the promotion instant %v (timeout %v)", doneAt, promoteAt, sessionOpTimeout)
			}
			if j.Len() != 1 || j.entries[0].Key != tc.want {
				keys := []string{}
				for i := 0; i < j.Len(); i++ {
					keys = append(keys, j.entries[i].Key)
				}
				t.Fatalf("journal %v, want exactly [%s]", keys, tc.want)
			}
			// Only an op that moved to the new leader redirected.
			want := int64(0)
			if tc.want == "new" {
				want = 1
			}
			if redirects.Value() != want {
				t.Fatalf("%d redirects, want %d", redirects.Value(), want)
			}
			if len(dir.parked) != 0 {
				t.Fatalf("%d attempts still parked after the op finished", len(dir.parked))
			}
		})
	}
}

// opFunc is a workload whose every operation runs one function, whatever
// the engine.
type opFunc func(p *sim.Proc, j *Journal)

func (w opFunc) Name() string                                       { return "op" }
func (w opFunc) Load(p *sim.Proc, e *engine.Engine) error           { return nil }
func (w opFunc) Do(p *sim.Proc, e *engine.Engine, j *Journal) error { w(p, j); return nil }

// TestSessionKeepsOneWorkerPerGeneration: a fault-free pool spawns one
// worker per session per leader generation and reuses it for every
// operation; once RunSessions returns its workers are gone, and Close
// leaves nothing live.
func TestSessionKeepsOneWorkerPerGeneration(t *testing.T) {
	const clients = 3
	s := sim.New(1)
	defer s.Close()
	dir := NewDirectory()
	n1 := s.NewDomain("n1")
	var n2 *sim.Domain
	dir.Update(1, "n1", &engine.Engine{}, n1)
	workers := map[*sim.Proc]int{} // worker → generation it served
	ops := 0
	w := opFunc(func(p *sim.Proc, j *Journal) {
		ops++
		workers[p] = dir.Leader().Gen
		p.Sleep(time.Millisecond)
	})
	var res RunResult
	// live counts the processes of the root domain, where the caller runs,
	// and of the two leaders' domains, where the workers run.
	live := func(root *sim.Domain) int { return root.Procs() + n1.Procs() + n2.Procs() }
	liveAfter := -1
	pool := s.Spawn(nil, "pool", func(p *sim.Proc) {
		res = RunSessions(p, dir, w, SessionConfig{Clients: clients, Duration: time.Second, Reg: obs.NewRegistry()})
		p.Sleep(time.Millisecond) // let the retired workers unwind
		liveAfter = live(p.Domain())
	})
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(400 * time.Millisecond)
		n2 = s.NewDomain("n2")
		dir.Update(2, "n2", &engine.Engine{}, n2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Aborted != 0 || res.Committed != int64(ops) || ops < 1000 {
		t.Fatalf("%d committed, %d aborted, %d ops run", res.Committed, res.Aborted, ops)
	}
	perGen := map[int]int{}
	for _, gen := range workers {
		perGen[gen]++
	}
	if len(workers) != 2*clients || perGen[1] != clients || perGen[2] != clients {
		t.Fatalf("%d workers for %d ops (per generation %v), want %d per generation", len(workers), ops, perGen, clients)
	}
	if liveAfter != 1 { // the pool process itself
		t.Fatalf("%d processes live after RunSessions returned, want only the caller", liveAfter)
	}
	s.Close()
	if n := live(pool.Domain()); n != 0 {
		t.Fatalf("%d processes live after Close", n)
	}
}

// TestAbandonedWorkerIsKilledAndNeverJournals: an attempt that outlives
// sessionOpTimeout on a leader that stays up is abandoned; its worker is
// killed before it can journal, and the retry runs on a fresh worker.
func TestAbandonedWorkerIsKilledAndNeverJournals(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	dir := NewDirectory()
	dir.Update(1, "n1", &engine.Engine{}, s.NewDomain("n1"))
	var workers []*sim.Proc
	w := opFunc(func(p *sim.Proc, j *Journal) {
		workers = append(workers, p)
		if len(workers) == 1 {
			p.Sleep(2 * sessionOpTimeout)
			j.Add("late", nil)
			return
		}
		j.Add("retry", nil)
	})
	j := NewJournal()
	se := &session{dir: dir, w: w, cfg: SessionConfig{Journal: j}, opName: "op", redirects: new(metrics.Counter)}
	var opErr error
	s.Spawn(nil, "client", func(p *sim.Proc) { opErr = se.do(p) })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if opErr != nil {
		t.Fatalf("op failed: %v", opErr)
	}
	if len(workers) != 2 || workers[0] == workers[1] || !workers[0].Done() {
		t.Fatalf("%d attempts; want the abandoned worker dead and the retry on a fresh one", len(workers))
	}
	if j.Len() != 1 || j.entries[0].Key != "retry" {
		t.Fatalf("journal holds %d entries (first %q), want only the retry", j.Len(), j.entries[0].Key)
	}
}

// TestIdleWorkerIsNotADeadlock: a worker parked between operations is
// background machinery, but a worker hung inside an operation is a
// deadlock the kernel reports by name.
func TestIdleWorkerIsNotADeadlock(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	dom := s.NewDomain("n1")
	never := s.NewEvent("never")
	calls := 0
	w := opFunc(func(p *sim.Proc, j *Journal) {
		if calls++; calls == 2 {
			never.Wait(p)
		}
	})
	se := &session{w: w, opName: "session0.op"}
	ld := LeaderInfo{Gen: 1, Name: "n1", Eng: &engine.Engine{}, Dom: dom}
	se.dispatch(s, ld)
	if err := s.Run(); err != nil {
		t.Fatalf("an idle worker was reported: %v", err)
	}
	if !se.ended || dom.Procs() != 1 {
		t.Fatalf("first op ended %v with %d live processes, want the idle worker", se.ended, dom.Procs())
	}
	se.dispatch(s, ld)
	var dl *sim.DeadlockError
	if err := s.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 || !strings.HasPrefix(dl.Procs[0], "session0.op") {
		t.Fatalf("a worker hung in an op: Run returned %v, want a deadlock naming it", err)
	}
}
