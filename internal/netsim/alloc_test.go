//go:build !race

// Allocation-regression pin for the fabric's delivery path. Exact malloc
// counts change under the race detector, so this only runs without -race.

package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestSendDeliverAllocFree pins a steady Send → deliver → receive cycle of a
// pooled payload at zero allocations per message: the in-flight record and
// its arrival callback come from the fabric's pool, the timer from the
// kernel's, and the inbox slot from the endpoint's reused backing array.
func TestSendDeliverAllocFree(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	f := New(s, Config{Seed: 2})
	a, b := f.Endpoint("a"), f.Endpoint("b")
	msg := &rcMsg{data: []byte{1, 2, 3}}
	cycle := func() {
		msg.refs = 1
		a.Send("b", 512, msg)
		for {
			if ok, err := s.Step(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		m, ok := b.TryRecv()
		if !ok {
			t.Fatal("message not delivered")
		}
		m.Payload.(*rcMsg).Release()
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a steady send → deliver allocates %.2f times per message, want 0", allocs)
	}
}
