// Package obs is the observability substrate of the RapiLog simulation:
// a virtual-time tracer for the commit lifecycle, a central metrics
// registry every layer registers its instruments with, a durability-
// exposure audit derived from trace events, and structured (JSON) export
// of both.
//
// The package exists because RapiLog's safety argument is quantitative:
// acknowledged-but-not-yet-durable bytes must stay under the provably
// dumpable bound. The tracer records every transition a write makes —
//
//	tx begin → WAL append → log-write submit → hypervisor ack →
//	drain start → durable-on-disk (or power-fail dump)
//
// — and the audit replays those events into the exposure time-series the
// paper reasons about, checking its peak against the configured bound.
//
// Everything here runs on the single-threaded simulation kernel, so no
// locking is needed. All entry points are nil-safe: a nil *Obs, *Tracer or
// *Registry behaves as "disabled" (tracer) or "unregistered instruments"
// (registry), which is what keeps the hot paths at near-zero cost when
// observability is off.
package obs

import "fmt"

// Config parameterises an Obs bundle.
type Config struct {
	// TraceEnabled turns the commit-lifecycle tracer on. Off by default:
	// the tracer is a nil pointer and every Emit is a single branch.
	TraceEnabled bool
	// TraceCapacity bounds the trace ring buffer in events; default 1<<16.
	// When the ring wraps, the oldest events are overwritten and the audit
	// reports the trace as truncated.
	TraceCapacity int
}

// Obs bundles the tracer and the registry for one deployment.
type Obs struct {
	trace *Tracer
	reg   *Registry
}

// New creates an Obs bundle. The registry is always live; the tracer only
// when cfg.TraceEnabled is set.
func New(cfg Config) *Obs {
	o := &Obs{reg: NewRegistry()}
	if cfg.TraceEnabled {
		cap := cfg.TraceCapacity
		if cap <= 0 {
			cap = 1 << 16
		}
		o.trace = NewTracer(cap)
	}
	return o
}

// Tracer returns the bundle's tracer, or nil when tracing is disabled or o
// itself is nil. A nil *Tracer is valid: all its methods are no-ops.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}

// Registry returns the bundle's registry, or nil when o is nil. A nil
// *Registry is valid: instruments are created unregistered.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Sub returns a bundle whose registry prefixes every instrument name with
// prefix (see Registry.Sub) while sharing the tracer, domain included: a
// cluster node is a view of one replicated log, not a domain of its own.
func (o *Obs) Sub(prefix string) *Obs {
	if o == nil {
		return nil
	}
	return &Obs{trace: o.trace, reg: o.reg.Sub(prefix)}
}

// ShardPrefix is the name shard i's instruments live under ("shard.<i>").
func ShardPrefix(i int) string { return fmt.Sprintf("shard.%d", i) }

// Shard returns shard i's view of the bundle: Sub(ShardPrefix(i)), so one
// snapshot of the root registry carries every shard's instruments under
// distinct names, and a tracer that stamps log domain i+1 on its events.
func (o *Obs) Shard(i int) *Obs {
	v := o.Sub(ShardPrefix(i))
	if v != nil && v.trace != nil {
		v.trace = &Tracer{ring: v.trace.ring, dom: uint8(i + 1)}
	}
	return v
}
