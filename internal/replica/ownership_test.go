package replica

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestLossyLinkConvergesWithOwnershipCheck re-runs the lossy-link
// convergence scenario with the fabric's ownership check enabled: every
// delivered frame is re-hashed against its send-time sum, so a pooled
// payload buffer recycled while a frame (fresh, repair, or duplicate) was
// still in flight panics the run instead of silently corrupting a standby.
// Passing proves the refcounting discipline — retained stream, pending
// queue, and per-frame references — keeps every buffer pinned for exactly
// as long as the wire can still observe it.
func TestLossyLinkConvergesWithOwnershipCheck(t *testing.T) {
	s := sim.New(3)
	link := netsim.LinkConfig{DropProb: 0.3, DupProb: 0.15, ReorderProb: 0.25}
	fab := netsim.New(s, netsim.Config{Seed: 4, Link: link, CheckOwnership: true})
	cfg := Config{}
	var sts []*Standby
	var names []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("standby%d", i)
		sts = append(sts, NewStandby(s, fab, name, cfg))
		names = append(names, name)
	}
	sh := NewShipper(s, fab, nil, 1, names, cfg)
	s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(20 * time.Microsecond)
		}
	})
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		checkPrefix(t, st, 1, 300)
	}
	if sh.resends.Value() == 0 {
		t.Fatal("a 30% lossy link converged without any retransmission")
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not fail", what)
		}
	}()
	fn()
}

// TestAckOwnership: a pooled ack is read while its reader holds a
// reference and released exactly once. A second release always fails; under
// the netsimcheck build tag a read after the last release fails too, and
// the released ack is quarantined rather than handed out again, so a stale
// reader can never see another ack's fields.
func TestAckOwnership(t *testing.T) {
	t.Run("released twice", func(t *testing.T) {
		var pool ackPool
		a := pool.get(1, 7, 9, "standby0")
		if got := a.read(); got.Epoch != 1 || got.Seq != 7 || got.Seen != 9 || got.From != "standby0" {
			t.Fatalf("read %+v", got)
		}
		a.Release()
		mustPanic(t, "a second Release", a.Release)
	})
	t.Run("read after release", func(t *testing.T) {
		if !netsim.Checked {
			t.Skip("read-after-release detection is the netsimcheck build's")
		}
		var pool ackPool
		a := pool.get(1, 7, 9, "standby0")
		a.Release()
		mustPanic(t, "a read after the last Release", func() { a.read() })
		if b := pool.get(1, 8, 8, "standby0"); b == a {
			t.Fatal("a released ack was handed out again")
		}
	})
}
