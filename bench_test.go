package rapilog

// One testing.B benchmark per reproduced table/figure (E1–E10, A1–A7).
// Each iteration executes the experiment in quick mode and reports its
// headline values as custom metrics, so `go test -bench=.` regenerates a
// compact version of the whole evaluation. Run the full-size sweeps with
// cmd/rapilog-bench; the hot-path micro-benchmarks (kernel hand-off, a
// buffered log write, a commit per mode) are rapilog-bench -bench-json's
// perf suite, whose trajectory is committed as BENCH_*.json.

import "testing"

func runExperimentBench(b *testing.B, id string, metric func(rep *ExperimentReport) map[string]float64) {
	b.Helper()
	exp := ExperimentByID(id)
	if exp == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(ExperimentOptions{Quick: true, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && metric != nil {
			for name, v := range metric(rep) {
				b.ReportMetric(v, name)
			}
		}
	}
}

func tpsMetrics(keys ...string) func(rep *ExperimentReport) map[string]float64 {
	return func(rep *ExperimentReport) map[string]float64 {
		out := make(map[string]float64, len(keys))
		for _, k := range keys {
			out[k+"_tps"] = rep.Values[k]
		}
		return out
	}
}

// BenchmarkE1 regenerates the PG-like TPC-C throughput-vs-clients figure.
func BenchmarkE1ThroughputPG(b *testing.B) {
	runExperimentBench(b, "e1", tpsMetrics("rapilog/c=8", "native-sync/c=8"))
}

// BenchmarkE2 regenerates the MY-like engine figure.
func BenchmarkE2ThroughputMY(b *testing.B) {
	runExperimentBench(b, "e2", tpsMetrics("rapilog/c=8", "native-sync/c=8"))
}

// BenchmarkE3 regenerates the CX-like (commercial) engine figure.
func BenchmarkE3ThroughputCX(b *testing.B) {
	runExperimentBench(b, "e3", tpsMetrics("rapilog/c=8", "native-sync/c=8"))
}

// BenchmarkE4 regenerates the virtualisation-overhead table.
func BenchmarkE4VirtOverhead(b *testing.B) {
	runExperimentBench(b, "e4", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{"overhead_%": rep.Values["overhead_pct"]}
	})
}

// BenchmarkE5 regenerates the PSU hold-up / flush-budget table.
func BenchmarkE5PSUHoldup(b *testing.B) {
	runExperimentBench(b, "e5", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{"safe_MiB_measured_hdd": rep.Values["measured/hdd/safe_bytes"] / (1 << 20)}
	})
}

// BenchmarkE6 regenerates the plug-pull trial table.
func BenchmarkE6PowerFailTrials(b *testing.B) {
	runExperimentBench(b, "e6", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{
			"lost": rep.Values["rapilog/pg/lost"] + rep.Values["rapilog/my/lost"] + rep.Values["rapilog/cx/lost"],
		}
	})
}

// BenchmarkE7 regenerates the commit-latency distribution.
func BenchmarkE7CommitLatency(b *testing.B) {
	runExperimentBench(b, "e7", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{
			"sync_p50_us":    rep.Values["native-sync/p50_us"],
			"rapilog_p50_us": rep.Values["rapilog/p50_us"],
		}
	})
}

// BenchmarkE8 regenerates the buffer-bound sweep.
func BenchmarkE8BufferSweep(b *testing.B) {
	runExperimentBench(b, "e8", nil)
}

// BenchmarkE9 regenerates the guest-crash trial table.
func BenchmarkE9GuestCrashTrials(b *testing.B) {
	runExperimentBench(b, "e9", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{
			"rapilog_lost": rep.Values["rapilog/lost"],
			"async_lost":   rep.Values["native-async/lost"],
		}
	})
}

// BenchmarkE10 regenerates the raw-device microbenchmark.
func BenchmarkE10RawDevice(b *testing.B) {
	runExperimentBench(b, "e10", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{"hdd_rand_sync_iops": rep.Values["hdd/rand-sync-4k/iops"]}
	})
}

// BenchmarkA1 regenerates the group-commit ablation.
func BenchmarkA1GroupCommit(b *testing.B) {
	runExperimentBench(b, "a1", tpsMetrics("rapilog/c=16", "native-sync+delay/c=16"))
}

// BenchmarkA2 regenerates the SSD-substrate ablation.
func BenchmarkA2SSD(b *testing.B) {
	runExperimentBench(b, "a2", tpsMetrics("rapilog/c=8"))
}

// BenchmarkA3 regenerates the sizing-rule-violation ablation.
func BenchmarkA3UnsafeSizing(b *testing.B) {
	runExperimentBench(b, "a3", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{
			"safe_lost":   rep.Values["safe-bound/lost"],
			"unsafe_lost": rep.Values["8MiB-unsafe/lost"] + rep.Values["32MiB-unsafe/lost"],
		}
	})
}

// BenchmarkA5 regenerates the TPC-B sweep.
func BenchmarkA5TPCB(b *testing.B) {
	runExperimentBench(b, "a5", tpsMetrics("rapilog/c=16", "native-sync/c=16"))
}

// BenchmarkA6 regenerates the hardware-alternatives comparison.
func BenchmarkA6HardwareAlternatives(b *testing.B) {
	runExperimentBench(b, "a6", tpsMetrics("rapilog", "native-sync+nvram"))
}

// BenchmarkA7 regenerates the recovery-time table.
func BenchmarkA7RecoveryCost(b *testing.B) {
	runExperimentBench(b, "a7", func(rep *ExperimentReport) map[string]float64 {
		return map[string]float64{"redo_never_ms": rep.Values["never/redo_ms"]}
	})
}
