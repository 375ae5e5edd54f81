package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

// fakeReplicator records shipped writes and releases quorum waiters when
// told to. It stands in for internal/replica so the policy mechanics can
// be tested without a network.
type fakeReplicator struct {
	s       *sim.Sim
	next    uint64
	acked   uint64
	sig     *sim.Signal
	shipped []struct {
		lba  int64
		data []byte
	}
}

func newFakeReplicator(s *sim.Sim) *fakeReplicator {
	return &fakeReplicator{s: s, sig: s.NewSignal("fake.repl")}
}

func (f *fakeReplicator) Ship(lba int64, data []byte) uint64 {
	f.next++
	cp := append([]byte(nil), data...)
	f.shipped = append(f.shipped, struct {
		lba  int64
		data []byte
	}{lba, cp})
	return f.next
}

func (f *fakeReplicator) WaitQuorum(p *sim.Proc, seq uint64, k int) {
	for f.acked < seq {
		f.sig.Wait(p)
	}
}

func (f *fakeReplicator) ackUpTo(seq uint64) {
	f.acked = seq
	f.sig.Broadcast()
}

func TestQuorumPolicyBlocksAckUntilReplicasHold(t *testing.T) {
	s := sim.New(1)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	r := buildRigOn(t, s, m, func(fr *fakeReplicator) Config {
		return Config{Policy: AckQuorum(1), Replicator: fr}
	})
	var ackedAt sim.Time
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if err := r.l.Write(p, 0, pattern(4096, 1), false); err != nil {
			t.Errorf("write: %v", err)
		}
		ackedAt = p.Now()
	})
	// Release the quorum only at t=5ms: the ack must not happen earlier.
	fr := r.l.cfg.Replicator.(*fakeReplicator)
	s.After(5*time.Millisecond, func() { fr.ackUpTo(1) })
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ackedAt == 0 {
		t.Fatal("write never acked")
	}
	if ackedAt < sim.Time(5*time.Millisecond) {
		t.Fatalf("quorum write acked at %v, before the replica ack", ackedAt)
	}
	if len(fr.shipped) != 1 || fr.shipped[0].lba != 0 {
		t.Fatalf("shipped %v, want the one write", fr.shipped)
	}
}

// buildRigOn mirrors newRig but lets the caller construct the Config
// against the live sim (the fake replicator needs the sim's signal).
func buildRigOn(t *testing.T, s *sim.Sim, m *power.Machine, mk func(*fakeReplicator) Config) *rig {
	t.Helper()
	fr := newFakeReplicator(s)
	r := &rig{s: s, m: m}
	var err error
	r.hdd = disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(r.hdd)
	r.logPart, err = disk.NewPartition(r.hdd, "log", 0, 262144)
	if err != nil {
		t.Fatal(err)
	}
	r.dump, err = disk.NewDumpZone(r.hdd, "dump", 262144, 262144)
	if err != nil {
		t.Fatal(err)
	}
	r.hvDom = m.NewDomain("hv")
	r.guest = m.NewDomain("guest")
	r.l, err = NewLogger(m, r.hvDom, r.logPart, r.dump, SafeBufferSize(m, r.dump, 1), mk(fr))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEveryDurablePathShips(t *testing.T) {
	s := sim.New(3)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	r := buildRigOn(t, s, m, func(fr *fakeReplicator) Config {
		return Config{Policy: AckLocal(), Replicator: fr}
	})
	fr := r.l.cfg.Replicator.(*fakeReplicator)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 0, pattern(512, 1), false) // fresh insert
		_ = r.l.Write(p, 0, pattern(512, 2), false) // absorbed rewrite
	})
	if err := s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fr.shipped) != 2 {
		t.Fatalf("shipped %d writes, want 2 (insert + absorbed rewrite)", len(fr.shipped))
	}
	if fr.shipped[1].data[0] != pattern(512, 2)[0] {
		t.Fatal("absorbed rewrite shipped stale bytes")
	}
}

func TestRemoteOnlyRelaxesSafeBound(t *testing.T) {
	s := sim.New(5)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	// 64 MiB is far beyond the local safe bound for a stock HDD +
	// PSUMeasured; remote-only accepts it without Unsafe.
	r := buildRigOn(t, s, m, func(fr *fakeReplicator) Config {
		return Config{Policy: AckRemoteOnly(1), Replicator: fr, MaxBuffer: 64 << 20}
	})
	if r.l.MaxBuffer() != 64<<20 {
		t.Fatalf("MaxBuffer = %d", r.l.MaxBuffer())
	}
}

func TestRemoteOnlySkipsEmergencyDump(t *testing.T) {
	s := sim.New(7)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	r := buildRigOn(t, s, m, func(fr *fakeReplicator) Config {
		return Config{Policy: AckRemoteOnly(1), Replicator: fr}
	})
	fr := r.l.cfg.Replicator.(*fakeReplicator)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		// Pre-ack so the remote-only quorum wait resolves instantly.
		fr.ackUpTo(1 << 30)
		_ = r.l.Write(p, 0, pattern(4096, 1), false)
	})
	s.After(2*time.Millisecond, func() { m.CutPower() })
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.l.RapiStats().DumpedBytes.Value(); got != 0 {
		t.Fatalf("remote-only policy dumped %d bytes to the local zone", got)
	}
	if r.l.RapiStats().EmergencyRuns.Value() != 1 {
		t.Fatal("emergency handler did not run")
	}
}

func TestQuorumPolicyRequiresReplicator(t *testing.T) {
	s := sim.New(9)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, _ := disk.NewPartition(hdd, "log", 0, 262144)
	dump, _ := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	_, err := NewLogger(m, m.NewDomain("hv"), logPart, dump, SafeBufferSize(m, dump, 1), Config{Policy: AckQuorum(1)})
	if err == nil || !strings.Contains(err.Error(), "requires a replicator") {
		t.Fatalf("err = %v, want replicator requirement", err)
	}
}

func TestParseAckPolicy(t *testing.T) {
	cases := []struct {
		kind string
		k    int
		want string
	}{
		{"local", 0, "local"},
		{"", 0, "local"},
		{"quorum", 2, "quorum(2)"},
		{"remote-only", 1, "remote-only(1)"},
		{"remote", 2, "remote-only(2)"},
	}
	for _, c := range cases {
		pol, err := ParseAckPolicy(c.kind, c.k)
		if err != nil {
			t.Fatalf("ParseAckPolicy(%q): %v", c.kind, err)
		}
		if pol.String() != c.want {
			t.Fatalf("ParseAckPolicy(%q, %d) = %v, want %s", c.kind, c.k, pol, c.want)
		}
	}
	if _, err := ParseAckPolicy("bogus", 1); err == nil {
		t.Fatal("bogus policy accepted")
	}
	// A -quorum under local acks used to be accepted and ignored.
	for _, kind := range []string{"", "local"} {
		if _, err := ParseAckPolicy(kind, 2); err == nil || !strings.Contains(err.Error(), "-quorum 2") {
			t.Fatalf("ParseAckPolicy(%q, 2) = %v, want an error naming -quorum", kind, err)
		}
	}
}

// countedReplicator exposes how many replicas back the fake, the way the
// real Shipper does via ReplicaCount.
type countedReplicator struct {
	*fakeReplicator
	n int
}

func (c countedReplicator) ReplicaCount() int { return c.n }

// TestQuorumPolicyRejectsOverlargeK: a quorum the replica set can never
// form would park every writer forever; NewLogger must reject it up front.
func TestQuorumPolicyRejectsOverlargeK(t *testing.T) {
	s := sim.New(29)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, err := disk.NewPartition(hdd, "log", 0, 262144)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	if err != nil {
		t.Fatal(err)
	}
	fr := countedReplicator{newFakeReplicator(s), 1}
	hv := m.NewDomain("hv")
	if _, err := NewLogger(m, hv, logPart, dump, SafeBufferSize(m, dump, 1), Config{Policy: AckQuorum(2), Replicator: fr}); err == nil {
		t.Fatal("quorum k=2 accepted with a 1-replica replicator")
	}
	if _, err := NewLogger(m, hv, logPart, dump, SafeBufferSize(m, dump, 1), Config{Policy: AckQuorum(1), Replicator: fr}); err != nil {
		t.Fatalf("k within the replica set rejected: %v", err)
	}
}
