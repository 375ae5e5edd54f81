package rig

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A safe (default-bounded) rapilog rig must keep peak acknowledged-but-
// undrained bytes within the provable bound: the throttle admits no write
// the hold-up window could not dump.
func TestExposureAuditSafeConfig(t *testing.T) {
	r, err := New(Config{Seed: 3, Mode: RapiLog, NoDaemons: true, Trace: true, TraceCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
		e, err := r.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 200; i++ {
			tx := e.Begin(p)
			_ = tx.Put(key(i), make([]byte, 512))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
		// Let the drainer retire the tail so ack→durable gets samples.
		p.Sleep(200 * time.Millisecond)
	})
	if err := r.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	rep, err := r.AuditExposure()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedTrace {
		t.Fatal("trace ring too small for this workload; audit would be approximate")
	}
	if rep.PeakBytes <= 0 {
		t.Fatal("no exposure observed; the workload never reached the log device")
	}
	if rep.Violated() {
		t.Fatalf("safe config violated its bound: %s", rep.Verdict())
	}
	if rep.AckToDurable.Count() == 0 {
		t.Fatal("no ack→durable latency samples")
	}
	if rep.Bound != r.SafeBound() {
		t.Fatalf("audit bound %d != rig SafeBound %d", rep.Bound, r.SafeBound())
	}
}

// An Unsafe config whose buffer exceeds SafeBufferSize must be caught by
// the audit: the hypervisor acks faster than the disk drains, so exposure
// climbs past what the hold-up window can dump.
func TestExposureAuditFlagsUnsafeConfig(t *testing.T) {
	r, err := New(Config{
		Seed:      4,
		Mode:      RapiLog,
		PSU:       power.PSUTypical, // short hold-up => small safe bound
		NoDaemons: true,
		Trace:     true, TraceCapacity: 1 << 20,
		RapiLog: core.Config{MaxBuffer: 8 << 20, Unsafe: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SafeBound() >= 8<<20 {
		t.Fatalf("test premise broken: safe bound %d not below the 8 MiB buffer", r.SafeBound())
	}
	r.S.Spawn(r.Plat.Domain(), "writer", func(p *sim.Proc) {
		// Burst 2 MiB of distinct-LBA log writes: acks land at copy speed
		// while the disk drains orders of magnitude slower.
		const chunk = 64 << 10
		for i := 0; i < 32; i++ {
			if err := r.Logger.Write(p, int64(i)*2*(chunk/512), make([]byte, chunk), false); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		p.Sleep(500 * time.Millisecond)
	})
	if err := r.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	rep, err := r.AuditExposure()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated() {
		t.Fatalf("unsafe config escaped the audit: %s", rep.Verdict())
	}
	if rep.PeakBytes <= rep.Bound {
		t.Fatalf("violation without peak>bound: %s", rep.Verdict())
	}
}

// Under remote-only acks the exposure bound is the configured buffer, not the
// dumpable window. The audit must judge exposure by the bound the monitor
// checks — the one the trace's contract carries — or the two disagree on the
// same run whenever the buffer is larger than SafeBufferSize.
func TestExposureAuditUsesTheMonitorsBound(t *testing.T) {
	r, err := New(Config{
		Seed: 5, Replicas: 2, AckPolicy: core.AckRemoteOnly(1),
		NoDaemons: true, Trace: true,
		RapiLog: core.Config{MaxBuffer: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Logger.MaxBuffer() <= r.SafeBound() {
		t.Fatalf("test premise broken: buffer %d not above the safe bound %d", r.Logger.MaxBuffer(), r.SafeBound())
	}
	rep, err := r.AuditExposure()
	if err != nil {
		t.Fatal(err)
	}
	c := r.Obs.Tracer().Dump().Contract
	if c == nil || rep.Bound != c.Bound || c.Bound != r.Logger.MaxBuffer() {
		t.Fatalf("audit bound %d, monitor contract %+v, buffer %d: want all equal", rep.Bound, c, r.Logger.MaxBuffer())
	}
}

// The audit refuses to run without a trace rather than reporting a vacuous
// zero-exposure pass.
func TestExposureAuditRequiresTracing(t *testing.T) {
	r, err := New(Config{Seed: 1, Mode: RapiLog, NoDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AuditExposure(); err == nil {
		t.Fatal("audit must fail when tracing is disabled")
	}
}

// Every mode must populate both per-stage commit histograms in the central
// registry: ack latency (commit call -> return) and durable latency
// (commit call -> WAL durability horizon).
func TestCommitStageHistogramsAllModes(t *testing.T) {
	for _, mode := range Modes {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			r, err := New(Config{Seed: 2, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			r.S.Spawn(r.Plat.Domain(), "db", func(p *sim.Proc) {
				e, err := r.Boot(p)
				if err != nil {
					t.Errorf("boot: %v", err)
					return
				}
				for i := 0; i < 50; i++ {
					tx := e.Begin(p)
					_ = tx.Put(key(i), []byte("v"))
					if err := tx.Commit(); err != nil {
						t.Errorf("commit %d: %v", i, err)
						return
					}
				}
				// Async mode acks before durability; sleep past the wal
				// writer interval so the background force lands.
				p.Sleep(100 * time.Millisecond)
			})
			if err := r.S.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			snap := r.Obs.Registry().Snapshot()
			ack, ok := snap.Histograms["engine.commit.ack_latency"]
			if !ok || ack.Count == 0 {
				t.Fatalf("ack_latency missing or empty: %+v", ack)
			}
			durable, ok := snap.Histograms["engine.commit.durable_latency"]
			if !ok || durable.Count == 0 {
				t.Fatalf("durable_latency missing or empty: %+v", durable)
			}
		})
	}
}

func key(i int) string { return "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

// The monitor's verdict is a function of the events alone: replaying a run's
// trace against its contract reaches the live verdict. On local-ack stress the
// standbys ack on but fall behind the primary, and the two used to disagree:
// the live monitor read the shipper's gauge and flagged retention_bound at
// 1.726 s, while the replay, with no gauge to read, skipped retention and
// said 0 violations. Retention peaks here at about 114 MB, under RetainLimit
// (the contract's): the replay against half that peak must flag it, so the
// events carry retention and the agreement is not vacuous.
func TestOneVerdictOnlineAndOfflineLocalAckStress(t *testing.T) {
	r, err := New(Config{Seed: 1, Mode: RapiLog, Replicas: 2, AckPolicy: core.AckLocal(), Trace: true, TraceCapacity: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(&workload.Stress{}, workload.RunnerConfig{Clients: 8, Duration: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	tr := r.Obs.Tracer()
	if tr.Dropped() != 0 {
		t.Fatalf("test premise: the ring dropped %d events", tr.Dropped())
	}
	peak := r.Obs.Registry().Gauge("repl.retained_bytes").Peak()
	if peak <= replica.DefaultRetainLimit/4 || peak > replica.DefaultRetainLimit {
		t.Fatalf("test premise: retention peaked at %d bytes, want the standbys far behind yet under RetainLimit", peak)
	}
	live, replay := r.Monitor.Report(), obs.RunMonitor(tr.Events(), r.contract())
	if live.TxAcked == 0 || live.Total != replay.Total || !reflect.DeepEqual(live.ByKind, replay.ByKind) || !reflect.DeepEqual(live.Samples, replay.Samples) {
		t.Fatalf("live verdict %+v, replay %+v", live, replay)
	}
	if live.Total != 0 {
		t.Fatalf("slow standbys broke the contract: %+v", live)
	}
	tight := r.contract()
	tight.RetainLimit = peak / 2
	if rep := obs.RunMonitor(tr.Events(), tight); rep.ByKind[obs.InvRetention.String()] == 0 {
		t.Fatalf("replayed against a %d-byte limit, retention read clean: %+v", tight.RetainLimit, rep)
	}
}
