// Package shard partitions a RapiLog deployment's commit stream across N
// fully independent log domains on one machine. Each shard owns its own
// logger, log partition, drain daemon and emergency-dump zone (and, when
// replicated, its own fabric and standby fleet); the only resources the
// shards share are the machine's PSU hold-up window — which is why each
// shard's buffer is sized by core.SafeBufferSizeShared — and the CPU pool.
//
// The package holds the pieces that are independent of the rig assembly:
// the key-hash Router deciding which shard owns a transaction, the merged
// recovery report a parallel per-shard recovery folds into, and the metric
// roll-up helpers that aggregate per-shard instruments ("shard.<i>.*", see
// obs.Obs.Shard) into fleet-wide totals.
package shard

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Router deterministically maps transaction keys to shards by FNV-1a hash.
// The mapping is pure data — no state beyond the shard count — so drivers,
// recovery audits and tests all agree on ownership without coordination.
type Router struct {
	n int
}

// NewRouter creates a router over n shards. n must be at least 1.
func NewRouter(n int) *Router {
	if n < 1 {
		panic(fmt.Sprintf("shard: router over %d shards", n))
	}
	return &Router{n: n}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// ShardFor returns the shard that owns key.
func (r *Router) ShardFor(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(r.n))
}

// Recovery is a machine's power-recovery report: one section per log domain
// (one on an unsharded machine), in domain order, plus machine-wide totals.
type Recovery struct {
	Shards []core.RecoveryReport
	// Flight is the flight record frozen at the power loss, when the machine
	// was running a flight recorder; nil otherwise.
	Flight *obs.FlightRecord
}

// Entries returns the total dump entries replayed across all shards.
func (m Recovery) Entries() int {
	n := 0
	for _, s := range m.Shards {
		n += s.Entries
	}
	return n
}

// Bytes returns the total bytes replayed across all shards.
func (m Recovery) Bytes() int64 {
	var n int64
	for _, s := range m.Shards {
		n += s.Bytes
	}
	return n
}

// HadDump reports whether any shard found a dump image.
func (m Recovery) HadDump() bool {
	for _, s := range m.Shards {
		if s.HadDump {
			return true
		}
	}
	return false
}

// Torn reports whether any shard's dump image was torn — its hold-up
// deadline hit mid-dump. One torn shard makes the fleet's recovery torn.
func (m Recovery) Torn() bool {
	for _, s := range m.Shards {
		if s.Torn {
			return true
		}
	}
	return false
}

// DumpFailures returns the total failed dump writes across all shards.
func (m Recovery) DumpFailures() int {
	n := 0
	for _, s := range m.Shards {
		n += s.DumpFailures
	}
	return n
}

// String renders the fleet totals followed by a per-shard section each.
func (m Recovery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded recovery: %d shards, %d entries, %d bytes",
		len(m.Shards), m.Entries(), m.Bytes())
	for i, s := range m.Shards {
		fmt.Fprintf(&b, "\n  shard %d: entries=%d bytes=%d hadDump=%v torn=%v",
			i, s.Entries, s.Bytes, s.HadDump, s.Torn)
		if s.DumpRetries > 0 || s.DumpFailures > 0 {
			fmt.Fprintf(&b, " dumpRetries=%d dumpFailures=%d", s.DumpRetries, s.DumpFailures)
		}
	}
	return b.String()
}

// RollupCounter sums the counter named "shard.<i>.<name>" over n shards.
// Registry access is get-or-create, so shards that never registered the
// instrument contribute zero.
func RollupCounter(reg *obs.Registry, n int, name string) int64 {
	var total int64
	for i := 0; i < n; i++ {
		total += reg.Counter(obs.ShardPrefix(i) + "." + name).Value()
	}
	return total
}

// RollupHistogram merges the per-shard histograms named "shard.<i>.<name>"
// into one fleet-wide distribution (see metrics.Histogram.Merge — bucket
// layouts are identical, so quantiles combine exactly up to quantisation).
func RollupHistogram(reg *obs.Registry, n int, name string) *metrics.Histogram {
	out := metrics.NewHistogram(name)
	for i := 0; i < n; i++ {
		out.Merge(reg.Histogram(obs.ShardPrefix(i) + "." + name))
	}
	return out
}
