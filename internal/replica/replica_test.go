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
	if lag := h.sh.next - 1 - h.sh.minAck(); lag != 0 {
		t.Fatalf("lag %d after settle", lag)
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
		rep, err = Recover(p, []*Standby{st0, st1}, mem, nil)
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
		got, err := readN(p, mem, 8, 1)
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
		rep, err := Recover(p, h.sts, mem, nil)
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
		fab.Send("standby0", cfg.PrimaryName, ackBytes, &ackMsg{Epoch: 1, Seq: 99, Seen: 99, From: "standby0", refs: 1})
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
// stream at the write rate forever. The stream holds at its ack up to
// RetainLimit, so a standby that comes back can still be repaired; past the
// limit the oldest records go, the trim passes the stalled standby, and it is
// evicted — lost for the epoch — and re-syncs when the next epoch restarts
// the stream.
func TestStalledReplicaEvictionBoundsRetention(t *testing.T) {
	cfg := Config{RetainLimit: 256 << 10, Trace: obs.NewTracer(1 << 16)}
	h := newHarness(t, 21, 2, netsim.LinkConfig{}, cfg)
	var maxRetained int64
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby1")
		for i := 0; i < 800; i++ { // 400 KB shipped, well past the 256 KiB limit
			h.sh.Ship(int64(i*8), payload(i, 512))
			maxRetained = max(maxRetained, h.sh.retainedB.Value())
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, h.sts[0], 1, 800)
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes after the live standby acked everything — the stalled standby still pins the stream", got)
	}
	// Held to the limit, not trimmed early: the peak passes RetainLimit by at
	// most the writes of one probe round.
	probeRound := int64(RetransmitEvery/(100*time.Microsecond)) * 512
	if maxRetained <= cfg.RetainLimit || maxRetained > cfg.RetainLimit+probeRound {
		t.Fatalf("retention peaked at %d bytes, want in (%d, %d]", maxRetained, cfg.RetainLimit, cfg.RetainLimit+probeRound)
	}
	r1 := h.sh.rep("standby1")
	if !r1.lost || h.sh.evictions.Value() != 1 {
		t.Fatalf("standby1 lost=%v after %d evictions, want evicted once and lost for the epoch", r1.lost, h.sh.evictions.Value())
	}
	var evicts []obs.Event
	for _, e := range cfg.Trace.Events() {
		if e.Kind == obs.EvEvict {
			evicts = append(evicts, e)
		}
	}
	if cfg.Trace.Dropped() != 0 || len(evicts) != 1 || evicts[0].Arg1 != r1.labelID {
		t.Fatalf("evict events %+v (ring dropped %d), want one naming standby1", evicts, cfg.Trace.Dropped())
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
	if !r1.lost {
		t.Fatal("a heal revived a standby the trim had passed")
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

// TestStalledReplicaHealedUnderLimitIsRepaired: a stall alone loses nothing.
// A standby whose link goes dark for 40 ms while 200 KB pile up behind it,
// and heals before RetainLimit, is repaired from the held stream and stays
// in the epoch. (The shipper used to evict a standby stalled 20 ms past a
// quarter of this bound, and this one was lost.)
func TestStalledReplicaHealedUnderLimitIsRepaired(t *testing.T) {
	cfg := Config{RetainLimit: 256 << 10}
	h := newHarness(t, 21, 2, netsim.LinkConfig{}, cfg)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby1")
		for i := 0; i < 400; i++ { // 200 KB: past 64 KiB, under 256 KiB
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		h.fab.Heal()
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if peak := h.sh.retainedB.Peak(); peak <= 64<<10 || peak > cfg.RetainLimit {
		t.Fatalf("test premise: retention peaked at %d bytes, want in (%d, %d]", peak, 64<<10, cfg.RetainLimit)
	}
	if r1 := h.sh.rep("standby1"); r1.lost || h.sh.evictions.Value() != 0 {
		t.Fatalf("standby1 lost=%v after %d evictions, want repaired", r1.lost, h.sh.evictions.Value())
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 400)
	}
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes after both standbys acked everything", got)
	}
}

// TestAllReplicasDeadStreamStaysRevivable: when every standby stalls at once
// (a fleet-wide stall — one switch, one rack), the trim frontier used to fall
// back to next-1 and drop the entire retained stream, turning a transient
// outage into lost-for-epoch for every standby. The frontier holds at the
// slowest ack (within RetainLimit), so healed standbys are repaired by the
// normal probe machinery.
func TestAllReplicasDeadStreamStaysRevivable(t *testing.T) {
	cfg := Config{RetainLimit: 256 << 10}
	h := newHarness(t, 22, 2, netsim.LinkConfig{}, cfg)
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ { // a healthy, fully acked prefix
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
		p.Sleep(20 * time.Millisecond)        // acks settle; retained drains
		h.fab.Isolate("standby0", "standby1") // the whole fleet goes dark
		for i := 50; i < 350; i++ {           // 150 KB unacked
			h.sh.Ship(int64(i*8), payload(i, 512))
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"standby0", "standby1"} {
		if h.sh.rep(name).lost {
			t.Fatalf("%s lost for the epoch: the fleet-wide stall dropped records it still needs", name)
		}
	}
	if len(h.sh.retained) == 0 {
		t.Fatal("retained stream empty after the fleet-wide stall; revival is impossible")
	}
	if h.sh.base != 51 {
		t.Fatalf("stream base %d, want held at 51 (slowest ack + 1)", h.sh.base)
	}
	// The fleet comes back: the probe must repair both standbys from the
	// held stream.
	h.fab.Heal()
	if err := h.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range h.sts {
		checkPrefix(t, st, 1, 350)
	}
	for _, name := range []string{"standby0", "standby1"} {
		if h.sh.rep(name).lost {
			t.Fatalf("%s lost after heal and full repair", name)
		}
	}
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes after both standbys acked everything", got)
	}
}

// TestAllDeadRetentionHardCap: holding the stream is not a blank cheque —
// with every standby stalled and the primary still writing, the retained
// stream slides once it passes RetainLimit, and replicas the slide passed
// become lost for the epoch. (Before the fix this scenario was unbounded the
// other way: after the all-dead wipe no ack round ever called truncate
// again, so retention regrew with every Ship.)
func TestAllDeadRetentionHardCap(t *testing.T) {
	cfg := Config{RetainLimit: 64 << 10}
	h := newHarness(t, 23, 2, netsim.LinkConfig{}, cfg)
	var maxRetained int64
	h.s.Spawn(nil, "writer", func(p *sim.Proc) {
		h.fab.Isolate("standby0", "standby1")
		for i := 0; i < 400; i++ { // 200 KB: past the 64 KiB limit
			h.sh.Ship(int64(i*8), payload(i, 512))
			maxRetained = max(maxRetained, h.sh.retainedB.Value())
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := h.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// One probe interval of writes can land between trims, so the bound is
	// the limit plus that accumulation — far below the 200 KB shipped.
	if maxRetained > 2*cfg.RetainLimit {
		t.Fatalf("retention peaked at %d bytes with every replica stalled, want ≤ ~%d (limit %d)",
			maxRetained, 2*cfg.RetainLimit, cfg.RetainLimit)
	}
	for _, name := range []string{"standby0", "standby1"} {
		if r := h.sh.rep(name); !r.lost {
			t.Fatalf("%s still marked revivable though the trim passed its ack", name)
		}
	}
	// All-lost is terminal for the epoch: retention drains entirely rather
	// than holding records nobody can ever be sent.
	if got := h.sh.retainedB.Value(); got != 0 {
		t.Fatalf("retained %d bytes with every replica lost for the epoch", got)
	}
}

// retentionVerdict replays the shipper's trace through the invariant monitor
// under a retention contract of limit bytes and the rig's grace: the shipper
// trims at its next ack or probe round.
func retentionVerdict(tr *obs.Tracer, limit int64) obs.MonitorReport {
	return obs.RunMonitor(tr.Events(), obs.MonitorConfig{RetainLimit: limit, RetainGrace: 2 * RetransmitEvery})
}

// TestSlowStandbysRetentionStaysUnderCap: standbys that keep acking, only
// slower than a local-ack primary writes, never stall. Retention used to grow
// with the backlog for as long as the load lasted — 107 MiB after 2 s of
// local-ack stress. RetainLimit holds whatever the standbys do: the oldest
// records go, and the standbys the trim passes are lost for the epoch. The
// shipper's trim events state its retention exactly.
func TestSlowStandbysRetentionStaysUnderCap(t *testing.T) {
	cfg := Config{RetainLimit: 64 << 10, Trace: obs.NewTracer(1 << 16)}
	link := netsim.LinkConfig{Bandwidth: 1e6} // 1 MB/s against 5 MB/s of writes
	h := newHarness(t, 24, 2, link, cfg)
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
	// As with every standby stalled, one probe interval of writes can land
	// between trims.
	if maxRetained > 2*cfg.RetainLimit || maxRetained <= cfg.RetainLimit {
		t.Fatalf("retention peaked at %d bytes behind slow standbys, want in (%d, ~%d]", maxRetained, cfg.RetainLimit, 2*cfg.RetainLimit)
	}
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", cfg.Trace.Dropped())
	}
	if rep := retentionVerdict(cfg.Trace, cfg.RetainLimit); rep.Total != 0 {
		t.Fatalf("the monitor, reading the shipper's events, found the limit broken: %+v", rep)
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
	st.apply(Record{Epoch: 1, Seq: 1, Lba: 0, Data: make([]byte, 700)}, false)
	mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})
	done := s.NewEvent("done")
	s.Spawn(nil, "driver", func(p *sim.Proc) {
		defer done.Fire()
		if _, err := Recover(p, []*Standby{st}, mem, nil); err == nil {
			t.Error("Recover accepted a 700-byte record on a 512-byte-sector device")
		}
	})
	if err := s.RunUntilEvent(done); err != nil {
		t.Fatal(err)
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d disk.Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*disk.SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}
