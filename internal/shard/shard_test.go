package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestRouterDeterministicAndInRange(t *testing.T) {
	r := NewRouter(4)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("w:%d", i)
		s := r.ShardFor(key)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardFor(%q) = %d, out of range", key, s)
		}
		if again := r.ShardFor(key); again != s {
			t.Fatalf("ShardFor(%q) flapped: %d then %d", key, s, again)
		}
	}
}

func TestRouterSpreadsKeys(t *testing.T) {
	const n, keys = 8, 4000
	r := NewRouter(n)
	var counts [n]int
	for i := 0; i < keys; i++ {
		counts[r.ShardFor(fmt.Sprintf("acct:%d", i))]++
	}
	// FNV-1a over sequential keys should land every shard within a loose
	// factor of the ideal share; a pathological hash would concentrate.
	ideal := keys / n
	for s, c := range counts {
		if c < ideal/2 || c > ideal*2 {
			t.Fatalf("shard %d got %d of %d keys (ideal %d): skewed partition", s, c, keys, ideal)
		}
	}
}

func TestRouterRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRouter(0) did not panic")
		}
	}()
	NewRouter(0)
}

func TestRecoveryMerge(t *testing.T) {
	m := Recovery{Shards: []core.RecoveryReport{
		{Entries: 3, Bytes: 1536, HadDump: true},
		{Entries: 0, Bytes: 0},
		{Entries: 5, Bytes: 2560, HadDump: true, Torn: true, DumpFailures: 1},
	}}
	if got := m.Entries(); got != 8 {
		t.Fatalf("Entries() = %d, want 8", got)
	}
	if got := m.Bytes(); got != 4096 {
		t.Fatalf("Bytes() = %d, want 4096", got)
	}
	if !m.HadDump() || !m.Torn() {
		t.Fatalf("HadDump()=%v Torn()=%v, want true/true", m.HadDump(), m.Torn())
	}
	if got := m.DumpFailures(); got != 1 {
		t.Fatalf("DumpFailures() = %d, want 1", got)
	}
	s := m.String()
	if s == "" || !contains(s, "shard 2") {
		t.Fatalf("String() missing per-shard sections: %q", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRollups(t *testing.T) {
	o := obs.New(obs.Config{})
	reg := o.Registry()
	const n = 3
	for i := 0; i < n; i++ {
		sub := o.Shard(i).Registry()
		sub.Counter("engine.commits").Add(int64(10 * (i + 1)))
		sub.Histogram("engine.commit.ack_latency").Observe(time.Duration(i+1) * time.Millisecond)
	}
	if got := RollupCounter(reg, n, "engine.commits"); got != 60 {
		t.Fatalf("RollupCounter = %d, want 60", got)
	}
	h := RollupHistogram(reg, n, "engine.commit.ack_latency")
	if h.Count() != 3 {
		t.Fatalf("RollupHistogram count = %d, want 3", h.Count())
	}
	if h.Max() < 3*time.Millisecond || h.Min() > time.Millisecond {
		t.Fatalf("RollupHistogram min/max wrong: min=%v max=%v", h.Min(), h.Max())
	}
	// A shard that never registered the instrument contributes zero, not an
	// error — roll-ups are safe to run before traffic starts.
	if got := RollupCounter(reg, n, "engine.aborts"); got != 0 {
		t.Fatalf("RollupCounter over unregistered = %d, want 0", got)
	}
}
