package rig

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestTopologyNames builds the three shapes the one constructor assembles —
// the paper's machine, a 3-shard machine, a 3-node cluster — and pins the
// disk, endpoint, store and metric names each gives its parts. The goldens
// in internal/faultinject hash them into a SHA: a trace's labels are its
// endpoint, store, shipper and leader names, and a metrics file is keyed by
// the registry's instrument names. This is the readable failure.
func TestTopologyNames(t *testing.T) {
	replicated := Config{Seed: 1, AckPolicy: core.AckQuorum(1)}
	sharded := replicated
	sharded.Shards = 3
	cluster, err := NewCluster(ClusterConfig{Nodes: 3, Rig: Config{Seed: 1, AckPolicy: core.AckQuorum(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cases := []struct {
		name    string
		cfg     *Config // nil: the cluster's leader node
		domains int
		stores  []string // domain 0's standbys
		primary string   // domain 0's shipper endpoint
		metrics []string
		absent  []string
	}{
		{
			name: "Shards: 0", cfg: &replicated, domains: 1,
			stores: []string{"standby0", "standby1"}, primary: "primary",
			metrics: []string{"rapilog.writes", "hv.exits", "disk0.writes", "repl.standby0.applied"},
			absent:  []string{"shard.0.rapilog.writes"},
		},
		{
			name: "Shards: 3", cfg: &sharded, domains: 3,
			stores: []string{"standby0", "standby1"}, primary: "primary",
			metrics: []string{"shard.1.rapilog.writes", "shard.2.disk0.writes", "shard.0.repl.standby1.applied", "hv.exits"},
			absent:  []string{"rapilog.writes", "shard.1.hv.exits", "shard.3.rapilog.writes"},
		},
		{
			name: "3-node cluster", domains: 1,
			stores: []string{"node1.log", "node2.log"}, primary: "node0",
			metrics: []string{"node0.rapilog.writes", "node0.hv.exits", "repl.node1.log.applied"},
			absent:  []string{"rapilog.writes", "node1.rapilog.writes"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, names := cluster.LeaderRig(), metricNames(cluster.Obs.Registry())
			if tc.cfg != nil {
				var err error
				if r, err = New(*tc.cfg); err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				names = metricNames(r.Obs.Registry())
			}
			if len(r.Domains) != tc.domains || r.LogDomain != r.Domains[0] {
				t.Fatalf("%d domains, want %d with Domains[0] embedded", len(r.Domains), tc.domains)
			}
			for i, d := range r.Domains {
				if d.Obs.Registry().Counter("disk0.writes") != d.Disk.Stats().Writes {
					t.Errorf("domain %d's drive is not disk0 in its registry view (domains are told apart by view, not device name)", i)
				}
			}
			var stores []string
			for _, st := range r.Standbys {
				stores = append(stores, st.Name())
			}
			if !slices.Equal(stores, tc.stores) {
				t.Errorf("standby endpoints %v, want %v", stores, tc.stores)
			}
			if got := r.at.endpoint; got != tc.primary {
				t.Errorf("shipper endpoint %q, want %q", got, tc.primary)
			}
			for _, m := range tc.metrics {
				if !slices.Contains(names, m) {
					t.Errorf("metric %q not registered", m)
				}
			}
			for _, m := range tc.absent {
				if slices.Contains(names, m) {
					t.Errorf("metric %q registered, want it absent", m)
				}
			}
		})
	}
	if got, want := cluster.LeaderAgent(), "node0.ha"; got != want {
		t.Errorf("leader heartbeat agent %q, want %q", got, want)
	}
	if got, want := cluster.AllStores(), []string{"node0.log", "node1.log", "node2.log"}; !slices.Equal(got, want) {
		t.Errorf("cluster stores %v, want %v", got, want)
	}
}

// metricNames lists the instruments reg holds by the names a snapshot of it,
// the -metrics-out file, keys them under. Registry views share one set of
// tables, so any view lists them all.
func metricNames(reg *obs.Registry) []string {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	return names
}
