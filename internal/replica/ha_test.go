package replica

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestShipperStopReleasesDaemonsAndBuffers: the demotion path reuses a live
// domain for consecutive shippers, so Stop must kill the ack/probe/flush
// daemons (not the domain) and return every buffer reference the shipper
// holds. Two sequential shippers in one domain must leave no orphans.
func TestShipperStopReleasesDaemonsAndBuffers(t *testing.T) {
	s := sim.New(31)
	fab := netsim.New(s, netsim.Config{Seed: 32})
	cfg := Config{}
	st := NewStandby(s, fab, "standby0", cfg)
	dom := s.NewDomain("hv")

	sh1 := NewShipper(s, fab, dom, 1, []string{"standby0"}, cfg)
	if got := dom.Procs(); got != 3 {
		t.Fatalf("shipper spawned %d procs in its domain, want 3", got)
	}
	s.Spawn(nil, "writer1", func(p *sim.Proc) {
		// Ship with the standby isolated so records stay retained (and one
		// stays pending un-flushed: Stop must release both queues).
		fab.Isolate("standby0")
		for i := 0; i < 8; i++ {
			sh1.Ship(int64(i*8), payload(i, 512))
		}
		sh1.Stop()
	})
	if err := s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := dom.Procs(); got != 0 {
		t.Fatalf("%d orphaned daemons after Stop", got)
	}
	if dom.Dead() {
		t.Fatal("Stop killed the whole domain")
	}
	if got := sh1.retainedB.Value(); got != 0 {
		t.Fatalf("%d bytes still retained after Stop", got)
	}
	if !sh1.stopped {
		t.Fatal("not stopped after Stop")
	}

	// A second shipper in the SAME domain must work end to end.
	fab.Restore("standby0")
	sh2 := NewShipper(s, fab, dom, 2, []string{"standby0"}, cfg)
	if got := dom.Procs(); got != 3 {
		t.Fatalf("second shipper spawned %d procs, want 3", got)
	}
	s.Spawn(nil, "writer2", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			sh2.Ship(int64(i*8), payload(i, 512))
		}
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, st, 2, 10)
	sh2.Stop()
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := dom.Procs(); got != 0 {
		t.Fatalf("%d orphaned daemons after second Stop", got)
	}
	sh2.Stop() // idempotent
}

// TestStoppedShipperPoolsNothing: frames a shipper sent before Stop still
// land, and the stores that apply them retire the earlier versions of the
// extents those frames rewrite — releasing the last references to those
// buffers after the shipper stopped. A stopped shipper pools none of them
// (it would keep them for the rest of the cluster's life and never ship
// again), and the stores' bytes still read back intact.
func TestStoppedShipperPoolsNothing(t *testing.T) {
	const extents, records = 16, 3 * maxFrameRecords
	s := sim.New(33)
	fab := netsim.New(s, netsim.Config{Seed: 34})
	sts := []*Standby{NewStandby(s, fab, "standby0", Config{}), NewStandby(s, fab, "standby1", Config{})}
	sh := NewShipper(s, fab, nil, 1, []string{"standby0", "standby1"}, Config{})
	var classes []*sizeClass
	s.Spawn(nil, "writer", func(p *sim.Proc) {
		// Whole frames flush inside Ship, so nothing is left pending.
		for i := 0; i < records; i++ {
			sh.Ship(int64(i%extents*8), payload(i, 512))
		}
		for _, sc := range sh.bufPool {
			classes = append(classes, sc)
		}
		sh.Stop()
		if got := sts[0].AppliedSeq(1); got != 0 {
			t.Errorf("a store applied %d records before Stop: no frame was in flight", got)
		}
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, sc := range classes {
		if len(sc.free) != 0 {
			t.Fatalf("the stopped shipper pooled %d buffers the stores released", len(sc.free))
		}
	}
	for _, st := range sts {
		if got := st.AppliedSeq(1); got != records {
			t.Fatalf("%s applied %d of the %d records sent before Stop", st.Name(), got, records)
		}
		recs := st.Records()
		if len(recs) != extents {
			t.Fatalf("%s holds %d records for %d extents: nothing was retired", st.Name(), len(recs), extents)
		}
		for _, r := range recs {
			if i := int(r.Seq) - 1; !bytes.Equal(r.Data, payload(i, 512)) || i < records-extents {
				t.Fatalf("%s: seq %d at lba %d is not intact and last", st.Name(), r.Seq, r.Lba)
			}
		}
	}
}

// TestEpochRolloverReplayOrder is the rollover property: a standby holding
// prefixes from epochs e and e+1 with overlapping lbas must replay them in
// epoch order at recovery — for every lba, the image ends up with the data
// from the HIGHEST epoch that wrote it, across random write patterns.
func TestEpochRolloverReplayOrder(t *testing.T) {
	for _, seed := range []int64{41, 43, 47, 53} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := sim.New(seed)
			fab := netsim.New(s, netsim.Config{Seed: seed + 1})
			cfg := Config{}
			st := NewStandby(s, fab, "standby0", cfg)
			mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})

			// winner[lba] = epoch that wrote it last (higher epoch wins).
			winner := make(map[int64]int)
			mark := func(e int, lba int64) []byte {
				b := make([]byte, 512)
				for i := range b {
					b[i] = byte(e*31 + int(lba))
				}
				return b
			}
			done := s.NewEvent("done")
			s.Spawn(nil, "driver", func(p *sim.Proc) {
				defer done.Fire()
				for e := 1; e <= 2; e++ {
					sh := NewShipper(s, fab, nil, e, []string{"standby0"}, cfg)
					n := 10 + rng.Intn(20)
					for i := 0; i < n; i++ {
						lba := int64(rng.Intn(16))
						sh.Ship(lba, mark(e, lba))
						winner[lba] = e
						p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					p.Sleep(10 * time.Millisecond) // settle before rollover
					sh.Stop()
				}
				rep, err := Recover(p, []*Standby{st}, mem, nil)
				if err != nil {
					t.Errorf("recover: %v", err)
					return
				}
				if rep.Epochs != 2 {
					t.Errorf("recovered %d epochs, want 2", rep.Epochs)
				}
				for lba, e := range winner {
					got, err := readN(p, mem, lba, 1)
					if err != nil {
						t.Errorf("read lba %d: %v", lba, err)
						continue
					}
					if !bytes.Equal(got, mark(e, lba)) {
						t.Errorf("lba %d: epoch %d's write did not win the replay", lba, e)
					}
				}
			})
			if err := s.RunUntilEvent(done); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStaleEpochAckAfterRollover: an epoch-1 ack that arrives after the
// cluster has rolled to epoch 2 must not count toward the new shipper's
// quorum, and must be counted as a fencing rejection.
func TestStaleEpochAckAfterRollover(t *testing.T) {
	s := sim.New(61)
	fab := netsim.New(s, netsim.Config{Seed: 62})
	cfg := Config{}
	cfg.applyDefaults()
	NewStandby(s, fab, "standby0", cfg)
	sh := NewShipper(s, fab, nil, 2, []string{"standby0"}, cfg)
	rejBefore := sh.fenceRej.Value()
	s.Spawn(nil, "forger", func(p *sim.Proc) {
		fab.Send("standby0", cfg.PrimaryName, ackBytes, &ackMsg{Epoch: 1, Seq: 7, Seen: 7, From: "standby0", refs: 1})
	})
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sh.QuorumSeq(1); got != 0 {
		t.Fatalf("stale-epoch ack advanced quorum to %d", got)
	}
	if got := sh.fenceRej.Value(); got != rejBefore+1 {
		t.Fatalf("fence rejections %d, want %d", got, rejBefore+1)
	}
}

// TestFenceRejectsStaleStream: once a standby is fenced at epoch 2, frames
// from the deposed epoch-1 shipper must be rejected — not applied, not
// acked — while the epoch-2 stream flows normally.
func TestFenceRejectsStaleStream(t *testing.T) {
	s := sim.New(71)
	fab := netsim.New(s, netsim.Config{Seed: 72})
	cfg := Config{}
	cfg.applyDefaults()
	st := NewStandby(s, fab, "standby0", cfg)
	coordEp := fab.Endpoint("coord")
	sh1 := NewShipper(s, fab, nil, 1, []string{"standby0"}, cfg)

	done := s.NewEvent("done")
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		sh1.Ship(0, payload(0, 512))
		p.Sleep(10 * time.Millisecond)
		if got := st.AppliedSeq(1); got != 1 {
			t.Errorf("pre-fence apply: %d", got)
		}
		// Fence at epoch 2; wait for the ack.
		coordEp.Send("standby0", fenceMsgBytes, FenceMsg{Epoch: 2, From: "coord"})
		m := coordEp.Recv(p)
		fa, ok := m.Payload.(FenceAck)
		if !ok || fa.Epoch != 2 {
			t.Errorf("fence ack = %#v", m.Payload)
		}
		if st.fenced != 2 {
			t.Errorf("standby fence = %d, want 2", st.fenced)
		}
		// The deposed shipper keeps shipping: nothing may apply.
		rej := st.fenceRej.Value()
		sh1.Ship(8, payload(1, 512))
		p.Sleep(10 * time.Millisecond)
		if got := st.AppliedSeq(1); got != 1 {
			t.Errorf("fenced standby applied epoch-1 seq %d", got)
		}
		if st.fenceRej.Value() <= rej {
			t.Error("fenced record not counted as rejection")
		}
		sh1.Stop()
		// The promoted epoch-2 stream flows normally.
		sh2 := NewShipper(s, fab, nil, 2, []string{"standby0"}, cfg)
		sh2.Ship(16, payload(2, 512))
		p.Sleep(10 * time.Millisecond)
		if got := st.AppliedSeq(2); got != 1 {
			t.Errorf("fenced standby rejected the fenced epoch's own stream (applied %d)", got)
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}

// TestFenceDeposesShipper: a fence reaching the old primary's ack loop marks
// the shipper deposed — it fence-acks (so the coordinator's wait completes
// even with the primary alive) and later acks stop advancing quorum.
func TestFenceDeposesShipper(t *testing.T) {
	s := sim.New(81)
	fab := netsim.New(s, netsim.Config{Seed: 82})
	cfg := Config{}
	cfg.applyDefaults()
	NewStandby(s, fab, "standby0", cfg)
	sh := NewShipper(s, fab, nil, 1, []string{"standby0"}, cfg)
	coordEp := fab.Endpoint("coord")
	done := s.NewEvent("done")
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		coordEp.Send(cfg.PrimaryName, fenceMsgBytes, FenceMsg{Epoch: 2, From: "coord"})
		m := coordEp.Recv(p)
		if fa, ok := m.Payload.(FenceAck); !ok || fa.Epoch != 2 {
			t.Errorf("fence ack = %#v", m.Payload)
		}
		if !sh.fenced {
			t.Error("shipper not marked fenced")
		}
		// Acks for the deposed epoch are dropped: quorum never advances.
		sh.Ship(0, payload(0, 512))
		p.Sleep(20 * time.Millisecond)
		if got := sh.QuorumSeq(1); got != 0 {
			t.Errorf("deposed shipper advanced quorum to %d", got)
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}

// TestStateQuery: a standby answers a StateReq with a copy of its per-epoch
// applied prefixes.
func TestStateQuery(t *testing.T) {
	s := sim.New(91)
	fab := netsim.New(s, netsim.Config{Seed: 92})
	cfg := Config{}
	cfg.applyDefaults()
	st := NewStandby(s, fab, "standby0", cfg)
	sh := NewShipper(s, fab, nil, 3, []string{"standby0"}, cfg)
	coordEp := fab.Endpoint("coord")
	done := s.NewEvent("done")
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		for i := 0; i < 5; i++ {
			sh.Ship(int64(i*8), payload(i, 512))
		}
		p.Sleep(10 * time.Millisecond)
		coordEp.Send("standby0", fenceMsgBytes, StateReq{From: "coord"})
		m := coordEp.Recv(p)
		sr, ok := m.Payload.(StateResp)
		if !ok {
			t.Errorf("state resp = %#v", m.Payload)
			return
		}
		if sr.From != "standby0" || sr.Applied[3] != 5 {
			t.Errorf("state resp %+v, want applied[3]=5", sr)
		}
		// The response must not alias the live map.
		sr.Applied[3] = 999
		if st.AppliedSeq(3) != 5 {
			t.Error("StateResp aliases the standby's applied map")
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}
