package workload

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
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
			redirects := metrics.NewCounter("ha.redirects")
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
			if j.Len() != 1 || j.EntryAt(0).Key != tc.want {
				keys := []string{}
				for i := 0; i < j.Len(); i++ {
					keys = append(keys, j.EntryAt(i).Key)
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
