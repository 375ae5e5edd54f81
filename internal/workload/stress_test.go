package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

func TestStressUniqueKeysPerClient(t *testing.T) {
	s, _, plat := rig(10)
	w := &Stress{}
	s.Spawn(plat.Domain(), "t", func(p *sim.Proc) {
		e, err := engine.Open(p, plat, engine.Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := w.Load(p, e); err != nil {
			t.Errorf("load: %v", err)
		}
		j := NewJournal()
		// Default Do (client 0) plus explicit clients must not collide.
		for i := 0; i < 5; i++ {
			if err := w.Do(p, e, j); err != nil {
				t.Errorf("do: %v", err)
			}
			if err := w.DoAs(p, e, j, 1); err != nil {
				t.Errorf("doAs: %v", err)
			}
		}
		if j.Len() != 10 {
			t.Errorf("journal len %d", j.Len())
		}
		seen := map[string]bool{}
		for i := 0; i < j.Len(); i++ {
			k := j.entries[i].Key
			if seen[k] {
				t.Errorf("duplicate stress key %s", k)
			}
			seen[k] = true
		}
		res, err := j.Verify(p, e)
		if err != nil || !res.Ok() {
			t.Errorf("verify: %v %v", res, err)
		}
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyResultString(t *testing.T) {
	ok := VerifyResult{Checked: 5}
	if !strings.Contains(ok.String(), "all durable") {
		t.Fatalf("ok string: %q", ok.String())
	}
	bad := VerifyResult{Checked: 5, Missing: 2, FirstBad: "missing k"}
	if !strings.Contains(bad.String(), "MISSING") || !strings.Contains(bad.String(), "missing k") {
		t.Fatalf("bad string: %q", bad.String())
	}
}

func TestRunnerPropagatesFatalErrors(t *testing.T) {
	// A non-retryable error (value too large for any page) must surface as
	// an abort, not loop forever.
	s, _, plat := rig(11)
	var res RunResult
	s.Spawn(nil, "harness", func(p *sim.Proc) {
		boot := s.NewEvent("boot")
		var e *engine.Engine
		s.Spawn(plat.Domain(), "db", func(dp *sim.Proc) {
			var err error
			e, err = engine.Open(dp, plat, engine.Config{NoDaemons: true})
			if err != nil {
				t.Errorf("open: %v", err)
			}
			boot.Fire()
		})
		boot.Wait(p)
		w := &Stress{ValueSize: 1 << 20} // can never fit a page
		res = RunClients(p, plat.Domain(), e, w, RunnerConfig{Clients: 1, Duration: 50 * time.Millisecond})
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Committed != 0 {
		t.Fatalf("committed %d with impossible rows", res.Committed)
	}
	if res.Aborted == 0 {
		t.Fatal("fatal errors not counted as aborts")
	}
}

func TestTPSZeroDuration(t *testing.T) {
	if (RunResult{Committed: 10}).TPS() != 0 {
		t.Fatal("TPS with zero duration")
	}
}
