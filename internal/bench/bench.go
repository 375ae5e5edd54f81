// Package bench implements the experiment harness: one runner per table
// and figure of the paper's evaluation (reconstructed — see DESIGN.md),
// plus this reproduction's own ablations. Each experiment builds fresh
// deterministic deployments, drives them on virtual time, and emits both a
// human-readable table and named scalar values that tests and
// EXPERIMENTS.md assertions consume.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/workload"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks sweeps and durations (tests, rapilog-bench -quick).
	Quick bool
	// Seed is the base deterministic seed; default 1.
	Seed int64
	// Progress, if non-nil, receives one line per completed data point.
	Progress io.Writer
}

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Stands string // which paper table/figure this stands in for
	Table  *metrics.Table
	Notes  []string
	// Values holds named scalars ("rapilog/c=8" → TPS) for programmatic
	// shape checks.
	Values map[string]float64
}

func newReport(id, title, stands string, table *metrics.Table) *Report {
	return &Report{ID: id, Title: title, Stands: stands, Table: table, Values: make(map[string]float64)}
}

// Render writes the report in its human-readable form.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", r.ID, r.Title)
	fmt.Fprintf(w, "   (stands in for: %s)\n\n", r.Stands)
	io.WriteString(w, r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	io.WriteString(w, "\n")
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) (*Report, error)
}

// All lists the experiments in evaluation order.
var All = []Experiment{
	{"e1", "TPC-C throughput vs clients, PG-like engine, HDD", runE1},
	{"e2", "TPC-C throughput vs clients, MY-like engine, HDD", runE2},
	{"e3", "TPC-C throughput vs clients, CX-like engine, HDD", runE3},
	{"e4", "virtualisation overhead, CPU-bound TPC-C", runE4},
	{"e5", "PSU hold-up vs emergency-flush requirement", runE5},
	{"e6", "power-failure trials under load (plug pulls)", runE6},
	{"e7", "commit latency distribution", runE7},
	{"e8", "buffer bound sweep and throttling", runE8},
	{"e9", "guest-OS crash trials under load", runE9},
	{"e10", "raw device write microbenchmark", runE10},
	{"a1", "ablation: group commit (commit_delay) vs RapiLog", runA1},
	{"a2", "ablation: E1 on SSD substrate", runA2},
	{"a3", "ablation: violating the buffer sizing rule", runA3},
	{"a4", "ablation: dedicated log spindle vs RapiLog", runA4},
	{"a5", "TPC-B (pgbench) throughput vs clients", runA5},
	{"a6", "hardware alternatives: NVRAM log vs RapiLog", runA6},
	{"a7", "recovery time vs checkpoint age", runA7},
	{"a8", "media faults under load: retry, degrade, lose nothing", runA8},
	{"a9", "replicated durability: quorum acks under partition + power-fail", runA9},
	{"a10", "sharded scale-out: N log domains, one hold-up window", runA10},
	{"a11", "high availability: epoch-fenced standby promotion", runA11},
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// measureWorkload builds a machine from cfg and measures saturation
// throughput on it (rig.Run, with clients per log domain). Besides the
// machine-wide result it returns the first domain's commit-latency histogram
// and the (closed, still readable) rig for callers that report device,
// logger or per-domain statistics.
func measureWorkload(cfg rig.Config, wl workload.Workload, clients int, warmup, dur time.Duration) (workload.RunResult, *metrics.Histogram, *rig.Rig, error) {
	r, err := rig.New(cfg)
	if err != nil {
		return workload.RunResult{}, nil, nil, err
	}
	defer r.Close()
	res, err := r.Run(wl, workload.RunnerConfig{Clients: clients, Duration: dur, Warmup: warmup})
	if err != nil {
		return workload.RunResult{}, nil, nil, err
	}
	return res.Total, res.Engines[0].Stats().CommitLatency, r, nil
}

// throughputSweep fills rep with the mode × client-count grid of E1–E3, A2
// and A5: a fresh base machine per cell, seeded Seed + clients·stride,
// measured under wl.
func throughputSweep(rep *Report, opts Options, base rig.Config, stride int64, clients []int, wl func() workload.Workload, warmup, dur time.Duration) (*Report, error) {
	header := []string{"clients"}
	for _, m := range rig.Modes {
		header = append(header, string(m))
	}
	rep.Table = metrics.NewTable(header...)
	for _, c := range clients {
		row := []string{fmt.Sprintf("%d", c)}
		for _, mode := range rig.Modes {
			cfg := base
			cfg.Seed, cfg.Mode = opts.Seed+int64(c)*stride, mode
			res, _, _, err := measureWorkload(cfg, wl(), c, warmup, dur)
			if err != nil {
				return nil, fmt.Errorf("%s %s c=%d: %w", rep.ID, mode, c, err)
			}
			row = append(row, fmt.Sprintf("%.0f", res.TPS()))
			rep.Values[fmt.Sprintf("%s/c=%d", mode, c)] = res.TPS()
			opts.progressf("%s: %-12s c=%-3d %8.0f tps", rep.ID, mode, c, res.TPS())
		}
		rep.Table.AddRow(row...)
	}
	return rep, nil
}

// tpccSweep is E1–E3 and A2: TPC-C on one engine personality and device,
// with enough warehouses that row contention (especially Payment's
// warehouse-YTD update) does not mask the commit path under study.
func tpccSweep(id, title, stands string, pers engine.Personality, diskKind rig.DiskKind, opts Options) (*Report, error) {
	opts.applyDefaults()
	clients, warmup, dur := []int{1, 2, 4, 8, 16, 32, 64}, 2*time.Second, 10*time.Second
	scale := workload.TPCC{Warehouses: 8, Districts: 10, Customers: 30, Items: 400}
	if opts.Quick {
		clients, warmup, dur = []int{1, 8, 32}, 500*time.Millisecond, 2*time.Second
		scale = workload.TPCC{Warehouses: 4, Districts: 4, Customers: 10, Items: 100}
	}
	wl := func() workload.Workload { w := scale; return &w }
	rep := newReport(id, title, stands, nil)
	rep.Notes = append(rep.Notes,
		"expected shape: rapilog ≈ native-async ≫ native-sync at low client counts;",
		"group commit narrows the gap as clients grow; rapilog never below virt-sync.")
	base := rig.Config{Personality: pers, Disk: diskKind, CheckpointEvery: 20 * time.Second}
	return throughputSweep(rep, opts, base, 101, clients, wl, warmup, dur)
}

func runE1(opts Options) (*Report, error) {
	return tpccSweep("e1", "TPC-C throughput vs clients, PG-like engine, HDD",
		"per-engine throughput figure (PostgreSQL)", engine.PGLike, rig.DiskHDD, opts)
}

func runE2(opts Options) (*Report, error) {
	return tpccSweep("e2", "TPC-C throughput vs clients, MY-like engine, HDD",
		"per-engine throughput figure (MySQL/InnoDB)", engine.MYLike, rig.DiskHDD, opts)
}

func runE3(opts Options) (*Report, error) {
	return tpccSweep("e3", "TPC-C throughput vs clients, CX-like engine, HDD",
		"per-engine throughput figure (commercial engine)", engine.CXLike, rig.DiskHDD, opts)
}

func runA2(opts Options) (*Report, error) {
	return tpccSweep("a2", "TPC-C throughput vs clients, PG-like engine, SSD",
		"flash discussion (§ non-rotating media)", engine.PGLike, rig.DiskSSD, opts)
}
