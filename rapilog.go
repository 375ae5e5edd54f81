// Package rapilog is the public API of the RapiLog reproduction: a
// simulated full-stack implementation of "RapiLog: reducing system
// complexity through verification" (EuroSys 2013).
//
// The package re-exports the building blocks needed to assemble and drive
// a deployment:
//
//	cfg := rapilog.Config{Seed: 1, Mode: rapilog.ModeRapiLog}
//	dep, err := rapilog.New(cfg)
//	...
//	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
//	    e, err := dep.Boot(p)
//	    tx := e.Begin(p)
//	    tx.Put("k", []byte("v"))
//	    tx.Commit() // durable the instant it returns — that is the paper
//	})
//	dep.S.Run()
//
// A Deployment is one simulated machine: PSU, optional dependable
// hypervisor, and one log domain — or Config.Shards of them — each with its
// disk (HDD/SSD/RAM), RapiLog log device and transactional storage engine.
// Everything runs on a deterministic virtual clock; power cuts and OS
// crashes are first-class operations, which is how the durability
// experiments audit the system.
//
// A measured run is one call on any machine, one log domain or many:
//
//	res, err := dep.Run(&rapilog.TPCC{}, rapilog.RunnerConfig{Clients: 8, Duration: 10 * time.Second})
//
// boots every log domain, gives each its own copy of the workload (on a
// sharded machine TPC-C and TPC-B are hash-partitioned and Stress gets one
// instance per domain) and loads it, runs one closed-loop client pool per
// domain, and returns the machine-wide Result with a section per domain;
// Deployment.RollupCounter and RollupHistogram sum or merge an instrument
// over the domains.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture and the paper-to-module map, and EXPERIMENTS.md for the
// reproduced evaluation.
package rapilog

import (
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Deployment assembly.
type (
	// Config parameterises a deployment with what some experiment, campaign
	// or test varies: mode, engine personality, disk kind, log-device
	// placement (LogDiskKind), PSU, cores, the RapiLog buffer policy, fault
	// wrappers, replication (standby count, ack policy, link), sharding,
	// tracing. What the device models and protocols are calibrated to is not
	// configurable: those are package constants (DESIGN.md §2).
	// Config.Normalize resolves the defaults New would apply.
	Config = rig.Config
	// Deployment is an assembled simulated machine + platform + engine
	// stack.
	Deployment = rig.Rig
	// LogDomain is one independent commit stream of a Deployment: disks,
	// guest, logger and replication fleet (Deployment.Domains).
	LogDomain = rig.LogDomain
	// Mode selects one of the four evaluation configurations.
	Mode = rig.Mode
	// DiskKind selects the storage model.
	DiskKind = rig.DiskKind
)

// New assembles a deployment.
func New(cfg Config) (*Deployment, error) { return rig.New(cfg) }

// Evaluation configurations. Neither replication nor sharding is a mode: a
// ModeRapiLog machine replicates with Config.Replicas > 0 (or a remote
// AckPolicy) and splits into N log domains with Config.Shards.
const (
	ModeNativeSync  = rig.NativeSync
	ModeNativeAsync = rig.NativeAsync
	ModeRapiLog     = rig.RapiLog
)

// Modes lists the paper's four evaluation configurations in evaluation
// order: every mode there is.
var Modes = rig.Modes

// Simulation kernel.
type (
	// Proc is a simulated process; all blocking operations take one.
	Proc = sim.Proc
	// Domain is a crash boundary.
	Domain = sim.Domain
)

// Engine is the transactional storage engine.
type Engine = engine.Engine

// Engine personalities used in the evaluation.
var (
	PGLike = engine.PGLike
	// Personalities maps personality names to presets.
	Personalities = engine.Personalities
)

// PSU profiles.
var (
	PSUATXSpec  = power.PSUATXSpec
	PSUTypical  = power.PSUTypical
	PSUMeasured = power.PSUMeasured
)

// AckPolicy selects when a commit is acknowledged — local buffer, quorum of
// standbys, or remote-only. A remote policy gives the machine standbys
// (Config.Replicas, default 2).
type AckPolicy = core.AckPolicy

// AckQuorum acknowledges a commit once k standbys hold it.
var AckQuorum = core.AckQuorum

// PrimaryEndpoint is the primary's name on the replication fabric (for
// Fabric.Isolate in partition experiments).
const PrimaryEndpoint = rig.PrimaryEndpoint

// ParseAckPolicy parses an ack-policy name ("local", "quorum",
// "remote-only") plus quorum size.
func ParseAckPolicy(kind string, k int) (AckPolicy, error) {
	return core.ParseAckPolicy(kind, k)
}

// Workloads and the durability journal.
type (
	// Workload is a benchmark driver.
	Workload = workload.Workload
	// TPCC is the TPC-C-derived OLTP mix.
	TPCC = workload.TPCC
	// TPCB is the pgbench-style account-update workload.
	TPCB = workload.TPCB
	// Stress is the commit-latency microbenchmark.
	Stress = workload.Stress
	// Journal records acked-commit obligations for durability audits.
	Journal = workload.Journal
	// RunnerConfig parameterises each log domain's client pool in
	// Deployment.Run.
	RunnerConfig = workload.RunnerConfig
	// RunResult summarises a client pool run.
	RunResult = workload.RunResult
	// Result is a measured run (Deployment.Run): the machine-wide totals, one
	// RunResult per log domain, and the engines the run booted.
	Result = rig.Result
)

// NewJournal creates an empty durability journal.
func NewJournal() *Journal { return workload.NewJournal() }

// Observability: commit-lifecycle tracing, the unified metrics registry,
// and the durability-exposure audit. Enable tracing with Config.Trace; a
// deployment's bundle is at Deployment.Obs.
type (
	// TraceEvent is one typed trace record.
	TraceEvent = obs.Event
	// MetricsRegistry owns every instrument in a deployment by name.
	MetricsRegistry = obs.Registry
	// Histogram is the fixed-bucket latency/size distribution every
	// instrumented stage records into.
	Histogram = metrics.Histogram
)

// Runtime verification: causal trace dumps, the crash flight recorder, the
// online invariant monitor, and the offline trace analyzer behind
// rapilog-trace. Enable with Config.Trace (tracing + monitor) or
// Config.Flight (adds the flight recorder).
type (
	// TraceDump is a serialisable copy of the tracer's event ring, its label
	// table and the contract the run was checked against — what -trace-out
	// writes and rapilog-trace reads.
	TraceDump = obs.TraceDump
	// FlightRecord is a frozen post-mortem: a TraceDump of the recent events
	// plus the freeze's reason and time, trailing metric snapshots, final
	// registry state, and the monitor's verdict.
	FlightRecord = obs.FlightRecord
	// MonitorConfig parameterises a Monitor; its data fields are the
	// contract (exposure bound, quorum size with 0 for local acks, retention
	// limits) a dump carries.
	MonitorConfig = obs.MonitorConfig
	// MonitorReport summarises a monitor's findings.
	MonitorReport = obs.MonitorReport
	// TraceAnalysis is the offline analyzer's result: per-stage latency
	// histograms, causal-chain completeness, the commit critical path, and
	// the fault/repair timeline.
	TraceAnalysis = obs.Analysis
)

// ReadFlightRecord parses a record written by -flight-out, or a dump written
// by -trace-out (a flight record with no freeze: Reason is empty).
func ReadFlightRecord(r io.Reader) (*FlightRecord, error) { return obs.ReadFlightRecord(r) }

// AnalyzeTrace runs the offline analyzer over a trace dump. buckets sizes
// the fault/repair timeline (0 = default).
func AnalyzeTrace(d TraceDump, buckets int) (*TraceAnalysis, error) { return obs.Analyze(d, buckets) }

// RunMonitor replays a recorded event stream through a fresh monitor — the
// offline re-verification rapilog-trace -check performs on a dump's
// contract.
func RunMonitor(events []TraceEvent, cfg MonitorConfig) MonitorReport {
	return obs.RunMonitor(events, cfg)
}

// Fault injection.
type (
	// Fault is the failure kind a trial injects.
	Fault = faultinject.Fault
	// CampaignConfig parameterises a fault-injection campaign.
	CampaignConfig = faultinject.CampaignConfig
	// CampaignSummary aggregates a campaign's trials.
	CampaignSummary = faultinject.Summary
)

// FaultPowerCut pulls the plug: the PSU hold-up race decides what survives.
// (Other kinds are written as Fault("guest-crash"), Fault("leader-power-cut")
// and so on, as the CLI does; a leader fault runs its trials on a cluster of
// CampaignConfig.Rig machines.)
const FaultPowerCut = faultinject.PowerCut

// RunCampaign executes a fault-injection campaign; a config no trial can
// run on is an error, and no trial runs.
func RunCampaign(cfg CampaignConfig) (CampaignSummary, error) { return faultinject.RunCampaign(cfg) }

// Experiments (the paper's tables and figures).
type (
	// Experiment is one reproducible table/figure runner.
	Experiment = bench.Experiment
	// ExperimentOptions tune an experiment run.
	ExperimentOptions = bench.Options
	// ExperimentReport is an experiment's rendered output and values.
	ExperimentReport = bench.Report
)

// Experiments lists every experiment in evaluation order.
var Experiments = bench.All

// ExperimentByID returns the experiment with the given id, or nil.
func ExperimentByID(id string) *Experiment { return bench.ByID(id) }
