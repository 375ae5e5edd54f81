package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// rcMsg is a refcounted, checksummable payload standing in for a pooled
// frame: the test tracks when the last reference dies and hashes the
// payload bytes so the ownership check can see mutation.
type rcMsg struct {
	data     []byte
	refs     int
	released int
}

func (m *rcMsg) Retain() { m.refs++ }

func (m *rcMsg) Release() {
	m.refs--
	if m.refs == 0 {
		m.released++
	}
	if m.refs < 0 {
		panic("rcMsg over-released")
	}
}

func (m *rcMsg) OwnershipSum() uint32 {
	h := uint32(2166136261)
	for _, b := range m.data {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// TestOwnershipCheckPanicsOnMutation: a sender that rewrites a payload
// after Send has broken the delivery-by-reference contract; with the check
// on, delivery must panic rather than hand the receiver corrupt bytes.
func TestOwnershipCheckPanicsOnMutation(t *testing.T) {
	s := sim.New(1)
	f := New(s, Config{Seed: 2, CheckOwnership: true})
	a := f.Endpoint("a")
	f.Endpoint("b")
	msg := &rcMsg{data: []byte{1, 2, 3, 4}, refs: 1}
	a.Send("b", 64, msg)
	msg.data[0] = 99 // contract violation: payload mutated while in flight

	defer func() {
		if recover() == nil {
			t.Fatal("mutated in-flight payload delivered without panic")
		}
	}()
	_ = s.RunFor(time.Second)
}

// TestOwnershipCheckCleanDelivery: an unmutated payload passes the check,
// and the receiver owns (and can release) exactly one reference.
func TestOwnershipCheckCleanDelivery(t *testing.T) {
	s := sim.New(3)
	f := New(s, Config{Seed: 4, CheckOwnership: true})
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	msg := &rcMsg{data: []byte{5, 6, 7}, refs: 1}
	a.Send("b", 64, msg)
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := b.TryRecv()
	if !ok {
		t.Fatal("message not delivered")
	}
	rc := got.Payload.(*rcMsg)
	if rc.refs != 1 {
		t.Fatalf("delivered payload holds %d refs, want 1", rc.refs)
	}
	rc.Release()
	if rc.released != 1 {
		t.Fatalf("released %d times, want 1", rc.released)
	}
}

// TestRefcountOnDropAndDup: the fabric releases the copies it eats (drops)
// and retains the extra copies it invents (dups), so the sender's
// one-reference-per-Send accounting balances in every fault regime.
func TestRefcountOnDropAndDup(t *testing.T) {
	s := sim.New(5)
	f := New(s, Config{Seed: 6, Link: LinkConfig{DropProb: 1}})
	a := f.Endpoint("a")
	msg := &rcMsg{data: []byte{1}, refs: 1}
	a.Send("b", 8, msg)
	if msg.released != 1 {
		t.Fatalf("dropped payload not released synchronously (released=%d)", msg.released)
	}

	s2 := sim.New(7)
	f2 := New(s2, Config{Seed: 8, Link: LinkConfig{DupProb: 1}})
	a2 := f2.Endpoint("a")
	b2 := f2.Endpoint("b")
	dup := &rcMsg{data: []byte{2}, refs: 1}
	a2.Send("b", 8, dup)
	if err := s2.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		m, ok := b2.TryRecv()
		if !ok {
			break
		}
		n++
		m.Payload.(*rcMsg).Release()
	}
	if n != 2 {
		t.Fatalf("DupProb=1 delivered %d copies, want 2", n)
	}
	if dup.released != 1 || dup.refs != 0 {
		t.Fatalf("dup accounting off: refs=%d released=%d", dup.refs, dup.released)
	}

	// Isolation at delivery time: the port going down mid-flight releases
	// the in-flight copy.
	s3 := sim.New(9)
	f3 := New(s3, Config{Seed: 10})
	a3 := f3.Endpoint("a")
	f3.Endpoint("b")
	iso := &rcMsg{data: []byte{3}, refs: 1}
	a3.Send("b", 8, iso)
	f3.Isolate("b")
	if err := s3.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if iso.released != 1 {
		t.Fatalf("isolated-at-delivery payload not released (released=%d)", iso.released)
	}
}

// TestDeliveryRecordsReturnToThePool: after a run of sends under drops,
// duplicates, reordering and a port that goes down with packets in flight,
// every delivery record is back in the fabric's pool and every refcounted
// payload was released exactly once — by the fabric for the copies it ate,
// by the receiver for the ones it got.
func TestDeliveryRecordsReturnToThePool(t *testing.T) {
	s := sim.New(11)
	f := New(s, Config{Seed: 12, Link: LinkConfig{DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}})
	a := f.Endpoint("a")
	recv := []*Endpoint{f.Endpoint("b"), f.Endpoint("c")}
	const n = 400
	msgs := make([]*rcMsg, n)
	s.Spawn(nil, "sender", func(p *sim.Proc) {
		for i := range msgs {
			msgs[i] = &rcMsg{data: []byte{byte(i)}, refs: 1}
			a.Send(recv[i%2].name, 256, msgs[i])
			if i == n/2 {
				f.Isolate("c") // packets to c still in flight are lost at arrival
			}
			p.Sleep(50 * time.Microsecond)
		}
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ep := range recv {
		for {
			m, ok := ep.TryRecv()
			if !ok {
				break
			}
			m.Payload.(*rcMsg).Release()
		}
	}
	st := f.stats
	if st.Dropped.Value() == 0 || st.Duplicated.Value() == 0 || st.Reordered.Value() == 0 || st.PartitionDrops.Value() == 0 {
		t.Fatalf("test premise: a fault path went unexercised: %d dropped, %d dup, %d reordered, %d partition drops",
			st.Dropped.Value(), st.Duplicated.Value(), st.Reordered.Value(), st.PartitionDrops.Value())
	}
	if f.made == 0 || len(f.free) != f.made {
		t.Fatalf("%d of %d delivery records back in the pool", len(f.free), f.made)
	}
	if got := st.InFlightBytes.Value(); got != 0 {
		t.Fatalf("%d bytes still in flight", got)
	}
	for i, m := range msgs {
		if m.released != 1 || m.refs != 0 {
			t.Fatalf("payload %d: released %d times, %d refs left; want once, 0", i, m.released, m.refs)
		}
	}
}
