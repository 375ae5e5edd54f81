package obs

import "repro/internal/metrics"

// Registry is the central owner of a deployment's instruments. Every layer
// registers its histograms, counters and gauges here by
// hierarchical name — `<instance>.<metric>`, e.g. "engine.commits",
// "wal.force_latency", "rapilog.ack_latency", "disk0.writes" — instead of
// holding ad-hoc locals, so one Snapshot call captures the whole stack.
//
// Methods are get-or-create: asking twice for the same name returns the
// same instrument, which is how a rebooted engine keeps accumulating into
// the same instruments. A nil *Registry creates unregistered instruments, so
// code paths built without an Obs bundle keep working unchanged.
type Registry struct {
	counters map[string]*metrics.Counter
	hists    map[string]*metrics.Histogram
	gauges   map[string]*metrics.Gauge
	// prefix is prepended to every name registered through this view; the
	// root registry's prefix is empty. See Sub.
	prefix string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*metrics.Counter),
		hists:    make(map[string]*metrics.Histogram),
		gauges:   make(map[string]*metrics.Gauge),
	}
}

// Sub returns a view of the registry that prepends prefix plus "." to
// every instrument name: "engine.commits" registered through Sub("shard.0")
// lands as "shard.0.engine.commits". Views share the underlying instrument
// tables — a snapshot of the root sees every shard's instruments — and a
// nil registry stays nil (unregistered instruments keep working).
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{
		counters: r.counters,
		hists:    r.hists,
		gauges:   r.gauges,
		prefix:   r.prefix + prefix + ".",
	}
}

// Counter returns the registered counter with the given name, creating it
// if needed.
func (r *Registry) Counter(name string) *metrics.Counter {
	if r == nil {
		return new(metrics.Counter)
	}
	name = r.prefix + name
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := new(metrics.Counter)
	r.counters[name] = c
	return c
}

// Histogram returns the registered histogram with the given name, creating
// it if needed.
func (r *Registry) Histogram(name string) *metrics.Histogram {
	if r == nil {
		return metrics.NewHistogram(name)
	}
	name = r.prefix + name
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := metrics.NewHistogram(name)
	r.hists[name] = h
	return h
}

// Gauge returns the registered gauge with the given name, creating it if
// needed.
func (r *Registry) Gauge(name string) *metrics.Gauge {
	if r == nil {
		return new(metrics.Gauge)
	}
	name = r.prefix + name
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := new(metrics.Gauge)
	r.gauges[name] = g
	return g
}
