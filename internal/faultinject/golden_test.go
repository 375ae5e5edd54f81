package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/workload"
)

// artifactHashes returns the SHA-256 of a capture's decoded schedule —
// Emitted, Dropped, the label table and every event — and of its metrics
// JSON. The schedule is hashed field by field, not as the dump's JSON, so a
// golden pins what the trial did and not how an artifact is laid out.
func artifactHashes(t *testing.T, a *Artifacts) (trace, metrics string) {
	t.Helper()
	if a == nil || a.Trace == nil || a.Metrics == nil {
		t.Fatalf("traced trial captured no trace/metrics: %+v", a)
	}
	events, err := a.Trace.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "emitted %d dropped %d\n", a.Trace.Emitted, a.Trace.Dropped)
	names := make([]string, 0, len(a.Trace.Labels))
	for n := range a.Trace.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "label %q %d\n", n, a.Trace.Labels[n])
	}
	for _, e := range events {
		fmt.Fprintf(h, "%d %s %d %d %d %d", int64(e.At), e.Kind, e.Span, e.Parent, e.Arg1, e.Arg2)
		if e.Dom != 0 {
			fmt.Fprintf(h, " dom %d", e.Dom)
		}
		fmt.Fprintln(h)
	}
	var b bytes.Buffer
	if err := a.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// requireContract fails t unless the capture's trace carries want as its
// contract.
func requireContract(t *testing.T, a *Artifacts, want obs.MonitorConfig) {
	t.Helper()
	if c := a.Trace.Contract; c == nil || *c != want {
		t.Fatalf("contract = %+v, want %+v", c, want)
	}
}

// requireOneVerdict fails t unless replaying the capture's trace against the
// contract it carries reaches the live monitor's verdict: every invariant is a
// function of the events.
func requireOneVerdict(t *testing.T, a *Artifacts) {
	t.Helper()
	events, err := a.Trace.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	live, replay := a.Monitor, obs.RunMonitor(events, *a.Trace.Contract)
	if live == nil || live.Total != replay.Total || !reflect.DeepEqual(live.ByKind, replay.ByKind) || !reflect.DeepEqual(live.Samples, replay.Samples) {
		t.Fatalf("live verdict %+v, replay %+v", live, replay)
	}
}

// The schedule-preservation goldens: one seeded trial per topology, captured
// before the three trial runners and two campaign loops were folded into one
// engine. A refactor of the harness must not move one event of a seeded
// trial, so these pin outcomes, the trace's contract, its decoded schedule
// and the metrics JSON; a change that is meant to move the schedule (a new
// draw from the simulation's generator, a reordered spawn) re-captures them
// and says why. The failover golden rides on TestFailoverTrialForensics,
// which runs that trial anyway.
//
// All four were last re-captured when the audit began checking every
// journaled ack and a trial began ending with its audit instead of idling
// to the ten-minute watchdog. The three machine trials' schedule hashes did
// not move; each acks one more transaction after the fault (Acked +1), and
// their metrics no longer count the idle tail. The failover trial's
// trace is the old one's first 467 098 events, cut where its audit ends.
//
// The failover golden alone was re-captured once more when a promotion
// began waking the session attempts parked on the deposed leader: its
// 35 788 events before the isolation are unchanged, and the first one that
// moves is at the promotion instant.
//
// All four were re-captured once more when the monitor began reading
// retention from the shipper's trim events instead of a registry gauge. No
// schedule moved. Every metrics JSON lost the six monitor.violations*
// counters and nothing else. The single-rig and sharded traces are
// unchanged. The two replicated trials gained trim events, and with those
// projected out their streams equal the old ones event for event: the
// replica trial's 13 655 events (plus 622 trims) and, replayed with a 2²⁰
// ring so nothing drops, the failover trial's 467 362 (plus 17 605 trims).
// Every golden also checks that a replay of its trace reaches the live
// monitor's verdict (requireOneVerdict).
//
// All four were re-captured once more when the coordinator began acting on
// messages as they arrive and the recovery scan began queueing its next
// extent behind the one in transfer. Each projection onto (At, Kind, Arg1,
// Arg2) equals the old one up to the fault and past it. The three machine
// trials move first at the audit's first tx_begin after the reboot, which
// the faster log scan brings forward (single rig 3633 → 3617 ms, replica
// 3808 → 3750 ms, sharded 4147 → 4014 ms); every earlier event in their
// rings is unchanged. The failover trial, replayed with a 2²⁰ ring, keeps
// its first 37 305 events, the isolation and the heartbeat detection
// included: the first that moves is the election, which the census now
// reaches when its last needed answer arrives (921 → 920.48 ms) instead of
// at the next millisecond poll.
//
// The four metrics hashes were re-pinned once more when the log device lost
// its no-op Flush and with it the always-zero rapilog.flushes counter. Each
// metrics JSON lost that one counter (once per shard or node, under its
// view's prefix) and nothing else; no trace hash moved.

func TestGoldenSingleRigPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Trace = true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 3005 || res.AckedAfterFault != 1 || res.Missing != 0 || !res.HadDump {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 6007449})
	requireOneVerdict(t, res.Artifacts)
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "2498dc4b65e750d94078d390659e804615e81fb660b5ab14745dd3cfed3d5d43" ||
		me != "0c075e1438c125dd789de2d6c5cde36e4bd7aef315d99422efc78b05e6a73124" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

func TestGoldenReplicaPartitionPlusPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, Partition, 1)
	cfg.Compose = PowerCut
	cfg.Rig.Replicas = 2
	cfg.Rig.AckPolicy = core.AckQuorum(1)
	cfg.Rig.Trace = true
	cfg.NewWorkload = func() workload.Workload { return &workload.Stress{ValueSize: 2000} }
	res := RunTrial(cfg, 99)
	if res.Err != nil || res.Acked != 467 || res.AckedAfterFault != 1 || res.Missing != 0 || res.ReplLagMax != 2 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{
		Bound: 6007449, QuorumK: 1, RetainLimit: 256 << 20, RetainGrace: 20 * time.Millisecond,
	})
	requireOneVerdict(t, res.Artifacts)
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "86ea0653e4661ccbb2d1e034ea4eb8f186cd59d92d2edcc5d939497e635625fd" ||
		me != "fc81e086c4189a69810f44554593e5299435df66d4e12f35105cb820d2e6d60f" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}

// The sharded trial runs traced, monitored and flight-recorded since its
// events name their shard; its outcome is the untraced one, so observing a
// sharded machine stays passive.
func TestGoldenShardedPowerCut(t *testing.T) {
	cfg := quickCampaign(rig.RapiLog, PowerCut, 1)
	cfg.Rig.Shards = 3
	cfg.Rig.Trace, cfg.Rig.Flight = true, true
	res := RunTrial(cfg, 42)
	if res.Err != nil || res.Acked != 7689 || res.AckedAfterFault != 1 || res.Missing != 0 || !res.HadDump || res.DumpRetries != 0 {
		t.Fatalf("trial moved: %+v", res)
	}
	requireContract(t, res.Artifacts, obs.MonitorConfig{Bound: 4201113})
	requireOneVerdict(t, res.Artifacts)
	if f := res.Artifacts.Flight; res.MonitorViolations != 0 || f == nil || f.Reason != "power-dc-loss" {
		t.Fatalf("monitor found %d violations, flight record %+v", res.MonitorViolations, f)
	}
	tr, me := artifactHashes(t, res.Artifacts)
	if tr != "176a7fb784b8933fdc8b2e178067d06019443379f760f348028787251061941b" ||
		me != "d12054e0c8564bd68bfc4d2a17130bb26daf8cd242f402ef341103e06a2c1db9" {
		t.Fatalf("artifacts moved: trace %s metrics %s", tr, me)
	}
}
