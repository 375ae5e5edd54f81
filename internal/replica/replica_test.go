package replica

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// harness builds a sim + fabric + shipper + n standbys on a clean link.
type harness struct {
	s   *sim.Sim
	fab *netsim.Fabric
	sh  *Shipper
	sts []*Standby
}

func newHarness(t *testing.T, seed int64, n int, link netsim.LinkConfig, cfg Config) *harness {
	t.Helper()
	s := sim.New(seed)
	fab := netsim.New(s, netsim.Config{Seed: seed + 1, Link: link})
	var sts []*Standby
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("standby%d", i)
		sts = append(sts, NewStandby(s, fab, name, cfg))
		names = append(names, name)
	}
	sh := NewShipper(s, fab, nil, 1, names, cfg)
	return &harness{s: s, fab: fab, sh: sh, sts: sts}
}

func payload(i int, size int) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(i + k)
	}
	return b
}

// shipN ships n sector-sized records at distinct lbas from a spawned proc.
func (h *harness) shipN(n int, gap time.Duration) {
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			h.sh.Ship(int64(i*8), payload(i, 512))
			if gap > 0 {
				p.Sleep(gap)
			}
		}
	})
}

// checkPrefix asserts the standby applied exactly seqs 1..n of epoch e in
// order with intact payloads.
func checkPrefix(t *testing.T, st *Standby, epoch int, n int) {
	t.Helper()
	if got := st.AppliedSeq(epoch); got != uint64(n) {
		t.Fatalf("%s: applied %d, want %d", st.Name(), got, n)
	}
	i := 0
	for _, rec := range st.Records() {
		if rec.Epoch != epoch {
			continue
		}
		i++
		if rec.Seq != uint64(i) {
			t.Fatalf("%s: record %d has seq %d", st.Name(), i, rec.Seq)
		}
		if !bytes.Equal(rec.Data, payload(i-1, 512)) {
			t.Fatalf("%s: record %d payload corrupted", st.Name(), i)
		}
	}
	if i != n {
		t.Fatalf("%s: %d records for epoch %d, want %d", st.Name(), i, epoch, n)
	}
}

func TestShipApplyAckRoundTrip(t *testing.T) {
	h := newHarness(t, 1, 2, netsim.LinkConfig{}, Config{})
	h.shipN(50, 50*time.Microsecond)
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 50)
	}
	if h.sh.Lag() != 0 {
		t.Fatalf("lag %d after settle", h.sh.Lag())
	}
	if got := h.sh.QuorumSeq(2); got != 50 {
		t.Fatalf("QuorumSeq(2) = %d, want 50", got)
	}
	// All-acked records must have been truncated from the retained window.
	if len(h.sh.retained) != 0 {
		t.Fatalf("%d records still retained", len(h.sh.retained))
	}
}

// TestLossyLinkConverges: drops, duplicates and reordering on every link;
// the retransmit protocol must still deliver the exact contiguous stream.
func TestLossyLinkConverges(t *testing.T) {
	link := netsim.LinkConfig{DropProb: 0.3, DupProb: 0.15, ReorderProb: 0.25}
	h := newHarness(t, 3, 2, link, Config{})
	h.shipN(300, 20*time.Microsecond)
	if err := h.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 300)
	}
	if h.sh.resends.Value() == 0 {
		t.Fatal("a 30% lossy link converged without any retransmission")
	}
}

func TestWaitQuorum(t *testing.T) {
	h := newHarness(t, 5, 3, netsim.LinkConfig{}, Config{})
	var ackedAt, seq3At sim.Time
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		var seq uint64
		for i := 0; i < 3; i++ {
			seq = h.sh.Ship(int64(i*8), payload(i, 512))
		}
		seq3At = p.Now()
		h.sh.WaitQuorum(p, seq, 2)
		ackedAt = p.Now()
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if ackedAt == 0 {
		t.Fatal("WaitQuorum never returned")
	}
	// Quorum needs a full network round trip; it cannot be instant.
	if rtt := ackedAt.Sub(seq3At); rtt < 200*time.Microsecond {
		t.Fatalf("quorum reached in %v — faster than one propagation delay", rtt)
	}
	if got := h.sh.QuorumSeq(2); got != 3 {
		t.Fatalf("QuorumSeq(2) = %d", got)
	}
}

// TestPartitionHealCatchUp: a standby isolated mid-stream misses records;
// after the heal the probe must walk it back to the tip, and a quorum
// writer blocked by the partition must unblock.
func TestPartitionHealCatchUp(t *testing.T) {
	h := newHarness(t, 7, 2, netsim.LinkConfig{}, Config{})
	quorumDone := false
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		h.fab.Isolate("standby1")
		var seq uint64
		for i := 20; i < 60; i++ {
			seq = h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		// Quorum of 2 includes the isolated standby: this must stall until
		// the heal, then complete via retransmission.
		healAt := p.Now().Add(50 * time.Millisecond)
		h.s.At(healAt, func() { h.fab.Heal() })
		h.sh.WaitQuorum(p, seq, 2)
		if p.Now() < healAt {
			t.Error("quorum reached through an active partition")
		}
		quorumDone = true
	})
	if err := h.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !quorumDone {
		t.Fatal("quorum writer never unblocked after heal")
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 60)
	}
}

// TestReplicaCrashRestartCatchUp: a crashed standby loses its receiver and
// NIC queue but keeps its applied log; on restart it rejoins and catches
// up from where it durably was.
func TestReplicaCrashRestartCatchUp(t *testing.T) {
	h := newHarness(t, 9, 2, netsim.LinkConfig{}, Config{})
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 15; i++ {
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		h.sts[0].Crash()
		if h.sts[0].Alive() {
			t.Error("crashed standby reports alive")
		}
		held := h.sts[0].AppliedSeq(1)
		for i := 15; i < 40; i++ {
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		if h.sts[0].AppliedSeq(1) != held {
			t.Error("crashed standby applied records")
		}
		h.sts[0].Restart()
	})
	if err := h.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 40)
	}
}

// TestEpochsAndRecover: two shipper epochs (a simulated power cycle), with
// the same lba rewritten across epochs; Recover must land the epoch-2
// version last, and replay everything in coalesced sequential runs.
func TestEpochsAndRecover(t *testing.T) {
	s := sim.New(11)
	fab := netsim.New(s, netsim.Config{Seed: 12})
	cfg := Config{}
	st0 := NewStandby(s, fab, "standby0", cfg)
	st1 := NewStandby(s, fab, "standby1", cfg)
	names := []string{"standby0", "standby1"}
	mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})

	recovered := s.NewEvent("recovered")
	var rep RecoverReport
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		sh1 := NewShipper(s, fab, nil, 1, names, cfg)
		e1 := []byte("epoch-one-data-")
		sh1.Ship(0, payload(1, 512))
		sh1.Ship(8, append(append([]byte{}, e1...), payload(2, 512-len(e1))...))
		p.Sleep(10 * time.Millisecond)

		// Power cycle: a fresh shipper under epoch 2 rewrites lba 8.
		sh2 := NewShipper(s, fab, nil, 2, names, cfg)
		e2 := []byte("epoch-two-wins-")
		sh2.Ship(8, append(append([]byte{}, e2...), payload(3, 512-len(e2))...))
		sh2.Ship(16, payload(4, 512))
		p.Sleep(10 * time.Millisecond)

		// Crash one standby: recovery must come from the survivor.
		st0.Crash()
		var err error
		rep, err = Recover(p, []*Standby{st0, st1}, mem)
		if err != nil {
			t.Errorf("recover: %v", err)
		}
		recovered.Fire()
	})
	if err := s.RunUntilEvent(recovered); err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 2 || rep.Entries != 4 {
		t.Fatalf("report %+v: want 2 epochs, 4 entries", rep)
	}
	// lbas 0,8,16 are not contiguous: three runs? 0 and 8 are separated
	// (sector 0 vs sector 8) so each lba is its own run here.
	if rep.Runs != 3 {
		t.Fatalf("runs = %d, want 3 (lbas 0, 8, 16)", rep.Runs)
	}
	check := s.NewEvent("checked")
	s.Spawn(nil, "check", func(p *sim.Proc) {
		defer check.Fire()
		got, err := mem.Read(p, 8, 1)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.HasPrefix(got, []byte("epoch-two-wins-")) {
			t.Errorf("lba 8 holds %q — epoch 1 overwrote epoch 2", got[:16])
		}
	})
	if err := s.RunUntilEvent(check); err != nil {
		t.Fatal(err)
	}
	_ = st1
}

// TestRecoverCoalescesContiguousRuns: adjacent sectors must land in one
// streaming write, not per-record seeks.
func TestRecoverCoalescesContiguousRuns(t *testing.T) {
	h := newHarness(t, 13, 1, netsim.LinkConfig{}, Config{})
	mem := disk.NewMem(h.s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})
	done := h.s.NewEvent("done")
	h.s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		for i := 0; i < 32; i++ {
			h.sh.Ship(int64(i), payload(i, 512)) // 32 contiguous sectors
		}
		p.Sleep(10 * time.Millisecond)
		rep, err := Recover(p, h.sts, mem)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if rep.Runs != 1 {
			t.Errorf("runs = %d, want 1 coalesced write for contiguous sectors", rep.Runs)
		}
		if rep.Bytes != 32*512 {
			t.Errorf("bytes = %d", rep.Bytes)
		}
	})
	if err := h.s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}

// TestShipperCopiesPayload: the caller may scribble on its buffer right
// after Ship returns (the Logger's pools do exactly that).
func TestShipperCopiesPayload(t *testing.T) {
	h := newHarness(t, 15, 1, netsim.LinkConfig{}, Config{})
	buf := payload(0, 512)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.sh.Ship(0, buf)
		for i := range buf {
			buf[i] = 0xFF // reuse the buffer immediately
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, h.sts[0], 1, 1)
}

// TestStaleEpochAcksIgnored: acks addressed to a dead epoch's stream must
// not advance the new shipper.
func TestStaleEpochAcksIgnored(t *testing.T) {
	s := sim.New(17)
	fab := netsim.New(s, netsim.Config{Seed: 18})
	cfg := Config{}
	cfg.applyDefaults()
	st := NewStandby(s, fab, "standby0", cfg)
	_ = st
	sh := NewShipper(s, fab, nil, 2, []string{"standby0"}, cfg)
	s.Spawn(nil, "forger", func(p *sim.Proc) {
		// A delayed ack from epoch 1 arrives at the epoch-2 shipper.
		fab.Send("standby0", cfg.PrimaryName, ackBytes, ackMsg{Epoch: 1, Seq: 99, Seen: 99, From: "standby0"})
	})
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sh.QuorumSeq(1); got != 0 {
		t.Fatalf("stale-epoch ack advanced quorum to %d", got)
	}
}

// TestStalledReplicaEvictionBoundsRetention: a standby that stops acking
// (here: a partition that never heals in-epoch) must not pin the retained
// stream at the write rate forever. Once retention exceeds RetainLimit and
// the standby's ack has stalled past DeadAfter, it is evicted and the
// stream trims to the live standby's ack; the evicted standby is lost for
// the epoch and re-syncs when the next epoch restarts the stream.
func TestStalledReplicaEvictionBoundsRetention(t *testing.T) {
	cfg := Config{RetainLimit: 64 << 10, DeadAfter: 20 * time.Millisecond}
	h := newHarness(t, 21, 2, netsim.LinkConfig{}, cfg)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby1")
		for i := 0; i < 300; i++ { // 150 KB shipped, well past the 64 KB bound
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, h.sts[0], 1, 300)
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes after the live standby acked everything — the stalled standby still pins the stream", got)
	}
	if h.sh.evictions.Value() == 0 {
		t.Fatal("stalled standby was never evicted")
	}
	r1 := h.sh.rep("standby1")
	if !r1.dead || !r1.lost {
		t.Fatalf("standby1 dead=%v lost=%v, want evicted and lost for the epoch", r1.dead, r1.lost)
	}
	// Healing mid-epoch cannot resurrect it: the records it needs are gone.
	// The probe must stop targeting it rather than resending a window it
	// can never apply.
	resends := h.sh.resends.Value()
	h.fab.Heal()
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.sts[1].AppliedSeq(1); got != 0 {
		t.Fatalf("lost standby applied %d epoch-1 records from a trimmed stream", got)
	}
	if got := h.sh.resends.Value(); got != resends {
		t.Fatalf("probe kept resending to a lost replica (%d new resends)", got-resends)
	}
	// The next epoch restarts the stream at seq 1; the lost standby rejoins
	// it cleanly. (In the rig the old shipper's daemons died with the
	// machine before the new epoch exists; here the epoch-1 loops are still
	// live on the shared endpoint, so assert via the applied prefix rather
	// than epoch-2 acks.)
	h.s.Spawn(nil, "writer2", func(p *sim.Proc) {
		sh2 := NewShipper(h.s, h.fab, nil, 2, []string{"standby0", "standby1"}, cfg)
		for i := 0; i < 5; i++ {
			sh2.Ship(int64(i*8), payload(i, 512))
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, h.sts[1], 2, 5)
}

// TestAllReplicasDeadStreamStaysRevivable: when retention pressure evicts
// every standby at once (a fleet-wide stall — one switch, one rack), the
// trim frontier used to fall back to next-1 and drop the entire retained
// stream, turning a transient outage into lost-for-epoch for every standby
// even though the probe explicitly supports reviving dead replicas. The
// fixed frontier holds at the slowest ack (within a hard cap), so healed
// standbys are repaired and revived by the normal probe machinery.
func TestAllReplicasDeadStreamStaysRevivable(t *testing.T) {
	cfg := Config{RetainLimit: 64 << 10, DeadAfter: 20 * time.Millisecond}
	h := newHarness(t, 22, 2, netsim.LinkConfig{}, cfg)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ { // a healthy, fully acked prefix
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		p.Sleep(20 * time.Millisecond)        // acks settle; retained drains
		h.fab.Isolate("standby0", "standby1") // the whole fleet goes dark
		for i := 50; i < 350; i++ {           // 150 KB unacked: well past RetainLimit
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if h.sh.evictions.Value() != 2 {
		t.Fatalf("evictions = %d, want the whole fleet evicted", h.sh.evictions.Value())
	}
	for _, name := range []string{"standby0", "standby1"} {
		r := h.sh.rep(name)
		if !r.dead {
			t.Fatalf("%s not dead after the fleet-wide stall", name)
		}
		if r.lost {
			t.Fatalf("%s lost for the epoch: the all-dead trim dropped records it still needs", name)
		}
	}
	if len(h.sh.retained) == 0 {
		t.Fatal("retained stream empty after all-dead eviction; revival is impossible")
	}
	if h.sh.base != 51 {
		t.Fatalf("stream base %d, want held at 51 (slowest ack + 1)", h.sh.base)
	}
	// The fleet comes back: the probe must repair both standbys from the
	// held stream and their late acks must revive them.
	h.fab.Heal()
	if err := h.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 350)
	}
	for _, name := range []string{"standby0", "standby1"} {
		if r := h.sh.rep(name); r.dead || r.lost {
			t.Fatalf("%s dead=%v lost=%v after heal and full repair", name, r.dead, r.lost)
		}
	}
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes after both standbys acked everything", got)
	}
}

// TestAllDeadRetentionHardCap: grace is not a blank cheque — with every
// standby dead and the primary still writing, the retained stream slides
// once it passes graceRetainFactor × RetainLimit, and replicas the slide
// passed become lost for the epoch. (Before the fix this scenario was
// unbounded the other way: after the all-dead wipe no ack round ever
// called truncate again, so retention regrew with every Ship.)
func TestAllDeadRetentionHardCap(t *testing.T) {
	cfg := Config{RetainLimit: 16 << 10, DeadAfter: 10 * time.Millisecond}
	h := newHarness(t, 23, 2, netsim.LinkConfig{}, cfg)
	hard := int64(graceRetainFactor) * cfg.RetainLimit
	var maxRetained int64
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby0", "standby1")
		for i := 0; i < 400; i++ { // 200 KB: past the 64 KB hard cap
			h.sh.Ship(int64(i*8), payload(i, 512))
			if got := h.sh.retainedB.Value(); got > maxRetained {
				maxRetained = got
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// One probe interval of writes can land between trims, so the bound is
	// the hard cap plus that accumulation — far below the 200 KB shipped.
	if maxRetained > 2*hard {
		t.Fatalf("retention peaked at %d bytes with every replica dead, want ≤ ~%d (hard cap %d)",
			maxRetained, 2*hard, hard)
	}
	for _, name := range []string{"standby0", "standby1"} {
		if r := h.sh.rep(name); !r.lost {
			t.Fatalf("%s still marked revivable though the hard cap trimmed past its ack", name)
		}
	}
	// All-lost is terminal for the epoch: retention drains entirely rather
	// than holding records nobody can ever be sent.
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes with every replica lost for the epoch", got)
	}
}

// retentionVerdict replays the shipper's trace through the invariant monitor
// under a retention contract of limit bytes and the rig's grace: an eviction
// window plus two probe rounds.
func retentionVerdict(tr *obs.Tracer, limit int64, cfg Config) obs.MonitorReport {
	return obs.RunMonitor(tr.Events(), obs.MonitorConfig{RetainLimit: limit, RetainGrace: cfg.DeadAfter + 2*RetransmitEvery})
}

// TestRetentionContractIsTheHardCap decides what the retention invariant may
// check. With the whole fleet stalled the shipper holds their stream past
// RetainLimit on purpose, so that they can still be repaired
// (TestAllReplicasDeadStreamStaysRevivable); checked against RetainLimit,
// that designed state read as a retention_bound violation. The bound the
// shipper holds to is its hard cap.
func TestRetentionContractIsTheHardCap(t *testing.T) {
	cfg := Config{RetainLimit: 64 << 10, DeadAfter: 20 * time.Millisecond, Trace: obs.NewTracer(1 << 14)}
	h := newHarness(t, 22, 2, netsim.LinkConfig{}, cfg)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby0", "standby1")
		for i := 0; i < 300; i++ { // 150 KB unacked: past RetainLimit, within the cap
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		p.Sleep(time.Second) // the fleet stays dark, the stream held
		h.fab.Heal()
	})
	if err := h.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.sh.evictions.Value() != 2 || h.sh.rep("standby0").lost || h.sh.retainedB.Peak() <= cfg.RetainLimit {
		t.Fatalf("test premise: %d evictions, peak %d bytes; want the fleet evicted and held revivable past RetainLimit",
			h.sh.evictions.Value(), h.sh.retainedB.Peak())
	}
	if rep := retentionVerdict(cfg.Trace, cfg.RetainLimit, cfg); rep.ByKind[obs.InvRetention.String()] != 1 {
		t.Fatalf("the held stream read clean against RetainLimit itself: %+v", rep)
	}
	if rep := retentionVerdict(cfg.Trace, graceRetainFactor*cfg.RetainLimit, cfg); rep.Total != 0 {
		t.Fatalf("the shipper broke its hard cap: %+v", rep)
	}
}

// TestSlowStandbysRetentionStaysUnderCap: standbys that keep acking, only
// slower than a local-ack primary writes, never stall, so the stall rule never
// evicts them. Retention used to grow with the backlog for as long as the load
// lasted — 107 MiB after 2 s of local-ack stress, past RetainLimit for good.
// The hard cap holds whatever the standbys do: the oldest records go, and the
// standbys the trim passes are lost for the epoch. The shipper's trim events
// state its retention exactly.
func TestSlowStandbysRetentionStaysUnderCap(t *testing.T) {
	cfg := Config{RetainLimit: 16 << 10, DeadAfter: 10 * time.Millisecond, Trace: obs.NewTracer(1 << 16)}
	link := netsim.LinkConfig{Bandwidth: 1e6} // 1 MB/s against 5 MB/s of writes
	h := newHarness(t, 24, 2, link, cfg)
	hard := int64(graceRetainFactor) * cfg.RetainLimit
	ledger := func() (b int64) {
		for _, e := range cfg.Trace.Events() {
			switch e.Kind {
			case obs.EvEpoch:
				b = 0
			case obs.EvShip:
				b += e.Arg2
			case obs.EvTrim:
				b = e.Arg2
			}
		}
		return b
	}
	var maxRetained int64
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ { // 1 MB in 200 ms
			h.sh.Ship(int64(i*8), payload(i, 512))
			maxRetained = max(maxRetained, h.sh.retainedB.Value())
			if i%100 == 0 {
				if got, want := ledger(), h.sh.retainedB.Value(); got != want {
					t.Errorf("record %d: trace ledger %d bytes, gauge %d", i, got, want)
				}
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, r := range h.sh.reps {
		if r.ack == 0 || r.progressAt < sim.Time(150*time.Millisecond) {
			t.Fatalf("test premise: %s is not acking steadily (ack %d, last progress %v)", r.name, r.ack, r.progressAt)
		}
		if !r.lost {
			t.Fatalf("%s (ack %d of %d) still pins the stream", r.name, r.ack, h.sh.LastSeq())
		}
	}
	// As with every standby dead, one probe interval of writes can land
	// between trims.
	if maxRetained > 2*hard || maxRetained <= hard {
		t.Fatalf("retention peaked at %d bytes behind slow standbys, want in (%d, ~%d]", maxRetained, hard, 2*hard)
	}
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", cfg.Trace.Dropped())
	}
	if rep := retentionVerdict(cfg.Trace, hard, cfg); rep.Total != 0 {
		t.Fatalf("the monitor, reading the shipper's events, found the cap broken: %+v", rep)
	}
}

// TestShipRejectsUnalignedPayload: shipped records are sector images —
// recovery folds them onto sector boundaries — so a payload that is not a
// whole number of sectors is a caller bug Ship must refuse loudly.
func TestShipRejectsUnalignedPayload(t *testing.T) {
	h := newHarness(t, 23, 1, netsim.LinkConfig{}, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Ship accepted a 700-byte payload on a 512-byte-sector stream")
		}
	}()
	h.sh.Ship(0, make([]byte, 700))
}

// TestWaitQuorumPanicsOnImpossibleQuorum: k beyond the replica count can
// never be satisfied; parking the writer forever would be a silent
// deadlock, so WaitQuorum panics instead.
func TestWaitQuorumPanicsOnImpossibleQuorum(t *testing.T) {
	h := newHarness(t, 25, 1, netsim.LinkConfig{}, Config{})
	done := h.s.NewEvent("panicked")
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		defer done.Fire()
		defer func() {
			if recover() == nil {
				t.Error("WaitQuorum(k=2) with 1 replica parked instead of panicking")
			}
		}()
		seq := h.sh.Ship(0, payload(0, 512))
		h.sh.WaitQuorum(p, seq, 2)
	})
	if err := h.s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsUnalignedRecord: defense in depth behind the Ship
// check — a record that is not a whole number of the log device's sectors
// must fail replay loudly, not silently drop its tail.
func TestRecoverRejectsUnalignedRecord(t *testing.T) {
	s := sim.New(27)
	fab := netsim.New(s, netsim.Config{Seed: 28})
	st := NewStandby(s, fab, "standby0", Config{})
	st.apply(Record{Epoch: 1, Seq: 1, Lba: 0, Data: make([]byte, 700)})
	mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})
	done := s.NewEvent("done")
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		if _, err := Recover(p, []*Standby{st}, mem); err == nil {
			t.Error("Recover accepted a 700-byte record on a 512-byte-sector device")
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}
