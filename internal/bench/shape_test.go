package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// These tests run every experiment in quick mode and assert the paper's
// qualitative results — the shapes EXPERIMENTS.md documents: who wins, by
// roughly what factor, and where the safety line is. Absolute numbers are
// simulator-scale and not asserted.

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	exp := ByID(id)
	if exp == nil {
		t.Fatalf("unknown experiment %q", id)
	}
	rep, err := exp.Run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	rep.Render(io.Discard)
	return rep
}

func v(t *testing.T, rep *Report, key string) float64 {
	t.Helper()
	val, ok := rep.Values[key]
	if !ok {
		t.Fatalf("%s: missing value %q (have %v)", rep.ID, key, sortedKeys(rep.Values))
	}
	return val
}

// throughputShape asserts the E1/E2/E3/A2 ordering at every client count.
func throughputShape(t *testing.T, rep *Report, clients []int, lowClientFactor float64) {
	for _, c := range clients {
		sync := v(t, rep, fmt.Sprintf("native-sync/c=%d", c))
		async := v(t, rep, fmt.Sprintf("native-async/c=%d", c))
		virt := v(t, rep, fmt.Sprintf("virt-sync/c=%d", c))
		rapi := v(t, rep, fmt.Sprintf("rapilog/c=%d", c))

		// RapiLog is never degraded beyond the virtualisation overhead:
		// at minimum it matches the virtualised synchronous baseline.
		if rapi < 0.95*virt {
			t.Errorf("%s c=%d: rapilog %.0f below virt-sync %.0f", rep.ID, c, rapi, virt)
		}
		// RapiLog lands in async territory, not sync territory.
		if rapi < 0.25*async {
			t.Errorf("%s c=%d: rapilog %.0f far below native-async %.0f", rep.ID, c, rapi, async)
		}
		if rapi < sync {
			t.Errorf("%s c=%d: rapilog %.0f below native-sync %.0f", rep.ID, c, rapi, sync)
		}
	}
	// The headline: at one client (no group commit to hide behind), the
	// sync-commit penalty is huge and RapiLog removes it.
	c := clients[0]
	sync := v(t, rep, fmt.Sprintf("native-sync/c=%d", c))
	rapi := v(t, rep, fmt.Sprintf("rapilog/c=%d", c))
	if rapi < lowClientFactor*sync {
		t.Errorf("%s c=%d: rapilog %.0f not ≥ %.1f× native-sync %.0f", rep.ID, c, rapi, lowClientFactor, sync)
	}
}

func TestShapeE1(t *testing.T) {
	throughputShape(t, runExp(t, "e1"), []int{1, 8, 32}, 5)
}

func TestShapeE2(t *testing.T) {
	throughputShape(t, runExp(t, "e2"), []int{1, 8, 32}, 5)
}

func TestShapeE3(t *testing.T) {
	// The CPU-heavy engine commits less often per unit time, so the gain
	// factor is smaller — the paper's point that gains shrink as the
	// engine, not the log, becomes the bottleneck.
	throughputShape(t, runExp(t, "e3"), []int{1, 8, 32}, 3)
}

func TestShapeE4VirtOverheadModest(t *testing.T) {
	rep := runExp(t, "e4")
	ov := v(t, rep, "overhead_pct")
	if ov <= 0 || ov > 30 {
		t.Errorf("virtualisation overhead %.1f%%, want (0, 30]", ov)
	}
}

func TestShapeE5SizingRule(t *testing.T) {
	rep := runExp(t, "e5")
	// Safe bound monotone in hold-up for each device.
	for _, dev := range []string{"hdd", "ssd"} {
		spec := v(t, rep, "atx-spec/"+dev+"/safe_bytes")
		typ := v(t, rep, "typical/"+dev+"/safe_bytes")
		meas := v(t, rep, "measured/"+dev+"/safe_bytes")
		if !(spec <= typ && typ < meas) {
			t.Errorf("%s: safe bound not monotone in hold-up: %.0f, %.0f, %.0f", dev, spec, typ, meas)
		}
	}
	// The ATX spec minimum supports no buffer on a rotating disk: the
	// paper's argument for measuring real supplies.
	if v(t, rep, "atx-spec/hdd/safe_bytes") != 0 {
		t.Error("atx-spec HDD should have no safe buffer")
	}
	// Every row with a safe bound dumps it, in the drive's worst case,
	// before the hold-up deadline, and its live plug-pull kept all data.
	for key, val := range rep.Values {
		if row, ok := strings.CutSuffix(key, "/safe_bytes"); ok && val > 0 {
			if m := v(t, rep, row+"/worst_margin_us"); m <= 0 {
				t.Errorf("%s: worst-case dump ends %.0fµs past the hold-up deadline", row, -m)
			}
			if v(t, rep, row+"/live_ok") != 1 {
				t.Errorf("live dump check failed for %s", row)
			}
		}
	}
}

func TestShapeE6ZeroLoss(t *testing.T) {
	rep := runExp(t, "e6")
	for _, eng := range []string{"pg", "my", "cx"} {
		if lost := v(t, rep, "rapilog/"+eng+"/lost"); lost != 0 {
			t.Errorf("engine %s lost %.0f acked commits across plug pulls", eng, lost)
		}
		if acked := v(t, rep, "rapilog/"+eng+"/acked"); acked == 0 {
			t.Errorf("engine %s acked nothing (experiment vacuous)", eng)
		}
	}
}

func TestShapeE7LatencyClasses(t *testing.T) {
	rep := runExp(t, "e7")
	syncP50 := v(t, rep, "native-sync/p50_us")
	rapiP50 := v(t, rep, "rapilog/p50_us")
	if syncP50 < 1000 {
		t.Errorf("native-sync commit p50 %.0fµs, want milliseconds (rotational)", syncP50)
	}
	if rapiP50 > 200 {
		t.Errorf("rapilog commit p50 %.0fµs, want tens of µs (memory copy)", rapiP50)
	}
	if syncP50/rapiP50 < 20 {
		t.Errorf("sync/rapilog p50 ratio %.1f, want ≫ 20", syncP50/rapiP50)
	}
}

func TestShapeE8BoundGovernsThrottling(t *testing.T) {
	rep := runExp(t, "e8")
	small := v(t, rep, "64 KiB/throttled")
	large := v(t, rep, "16.0 MiB/throttled")
	if small <= large {
		t.Errorf("throttling did not decrease with the bound: 64KiB=%.0f, 16MiB=%.0f", small, large)
	}
}

func TestShapeE9CrashAsymmetry(t *testing.T) {
	rep := runExp(t, "e9")
	if lost := v(t, rep, "rapilog/lost"); lost != 0 {
		t.Errorf("rapilog lost %.0f commits across guest crashes", lost)
	}
	if lost := v(t, rep, "native-async/lost"); lost == 0 {
		t.Error("native-async lost nothing: the unsafe baseline is not unsafe")
	}
}

func TestShapeE10DeviceClasses(t *testing.T) {
	rep := runExp(t, "e10")
	randIOPS := v(t, rep, "hdd/rand-sync-4k/iops")
	if randIOPS < 50 || randIOPS > 300 {
		t.Errorf("HDD random sync IOPS %.0f, want ~100 (seek + half rotation)", randIOPS)
	}
	if ssd := v(t, rep, "ssd/rand-sync-4k/iops"); ssd < 5*randIOPS {
		t.Errorf("SSD random IOPS %.0f not ≫ HDD %.0f", ssd, randIOPS)
	}
	hddRandMean := v(t, rep, "hdd/rand-sync-4k/mean_us")
	if hddRandMean < 2000 {
		t.Errorf("HDD random sync mean %.0fµs, want milliseconds", hddRandMean)
	}
}

func TestShapeA1ComplexityReduction(t *testing.T) {
	rep := runExp(t, "a1")
	for _, c := range []int{1, 16} {
		plain := v(t, rep, fmt.Sprintf("native-sync/c=%d", c))
		delay := v(t, rep, fmt.Sprintf("native-sync+delay/c=%d", c))
		rapi := v(t, rep, fmt.Sprintf("rapilog/c=%d", c))
		if rapi <= plain || rapi <= delay {
			t.Errorf("c=%d: rapilog %.0f not above sync %.0f and sync+delay %.0f", c, rapi, plain, delay)
		}
	}
	// commit_delay's one benefit: wider batches at high concurrency.
	if v(t, rep, "native-sync+delay/c=16") <= v(t, rep, "native-sync/c=16") {
		t.Error("commit_delay did not help at 16 clients")
	}
}

func TestShapeA2SSDGainsSurvive(t *testing.T) {
	rep := runExp(t, "a2")
	sync := v(t, rep, "native-sync/c=1")
	rapi := v(t, rep, "rapilog/c=1")
	if rapi < 1.5*sync {
		t.Errorf("SSD: rapilog %.0f not ≥ 1.5× native-sync %.0f (gain should shrink, not vanish)", rapi, sync)
	}
	if rapi < v(t, rep, "virt-sync/c=1") {
		t.Error("SSD: rapilog below virt-sync")
	}
}

func TestShapeA3SizingRuleMatters(t *testing.T) {
	rep := runExp(t, "a3")
	if lost := v(t, rep, "safe-bound/lost"); lost != 0 {
		t.Errorf("safe bound lost %.0f commits", lost)
	}
	unsafe := v(t, rep, "8MiB-unsafe/lost") + v(t, rep, "32MiB-unsafe/lost")
	if unsafe == 0 {
		t.Error("oversized buffers lost nothing: the sizing rule looks unnecessary (it is not)")
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range All {
		if exp.ID == "" || exp.Title == "" || exp.Run == nil {
			t.Errorf("experiment %+v incomplete", exp.ID)
		}
		if seen[exp.ID] {
			t.Errorf("duplicate id %s", exp.ID)
		}
		seen[exp.ID] = true
		if ByID(exp.ID) == nil {
			t.Errorf("ByID(%s) = nil", exp.ID)
		}
	}
	if ByID("zz") != nil {
		t.Error("ByID(zz) found something")
	}
}

func TestShapeA4DedicatedSpindle(t *testing.T) {
	rep := runExp(t, "a4")
	syncShared := v(t, rep, "native-sync/shared")
	syncDedicated := v(t, rep, "native-sync/dedicated")
	rapiShared := v(t, rep, "rapilog/shared")
	if syncDedicated < syncShared {
		t.Errorf("dedicated log disk made native-sync slower: %.0f vs %.0f", syncDedicated, syncShared)
	}
	if rapiShared < 2*syncDedicated {
		t.Errorf("rapilog on one disk (%.0f) not ≥ 2× two-disk native-sync (%.0f)", rapiShared, syncDedicated)
	}
}

func TestShapeA5TPCB(t *testing.T) {
	rep := runExp(t, "a5")
	for _, c := range []int{1, 16} {
		sync := v(t, rep, fmt.Sprintf("native-sync/c=%d", c))
		rapi := v(t, rep, fmt.Sprintf("rapilog/c=%d", c))
		virt := v(t, rep, fmt.Sprintf("virt-sync/c=%d", c))
		if rapi < 10*sync {
			t.Errorf("c=%d: TPC-B rapilog %.0f not ≥ 10× native-sync %.0f (pure commit path)", c, rapi, sync)
		}
		if rapi < virt {
			t.Errorf("c=%d: rapilog below virt-sync", c)
		}
	}
}

func TestShapeA6HardwareAlternatives(t *testing.T) {
	rep := runExp(t, "a6")
	plain := v(t, rep, "native-sync")
	nvram := v(t, rep, "native-sync+nvram")
	ssdLog := v(t, rep, "native-sync+ssd-log")
	rapi := v(t, rep, "rapilog")
	if nvram < 10*plain {
		t.Errorf("NVRAM log %.0f not ≫ plain disk %.0f", nvram, plain)
	}
	if rapi < ssdLog {
		t.Errorf("rapilog %.0f below a dedicated flash log %.0f", rapi, ssdLog)
	}
	if rapi < nvram/2 {
		t.Errorf("rapilog %.0f not in NVRAM's class (%.0f)", rapi, nvram)
	}
}

func TestShapeA7RecoveryCost(t *testing.T) {
	rep := runExp(t, "a7")
	// Frequent checkpoints must shrink redo work (possibly to zero); never
	// checkpointing must leave the most.
	never := v(t, rep, "never/redone")
	if never <= 0 {
		t.Error("ckpt=never redid nothing (vacuous)")
	}
	if never < v(t, rep, "1s/redone") || never < v(t, rep, "5s/redone") {
		t.Errorf("checkpointing did not reduce redo work: never=%.0f 5s=%.0f 1s=%.0f",
			never, v(t, rep, "5s/redone"), v(t, rep, "1s/redone"))
	}
	// Recovery streams the log, so the never row recovers in 0.54 s; reading
	// the log a block at a time, twice, costs 26.2 s. With fresh checkpoints
	// recovery is mostly the index rebuild, which streams the data pages in
	// 26 ms; reading them a page at a time costs 59 ms. Locks on the virtual
	// clock, not host timings.
	if ms := v(t, rep, "never/redo_ms"); ms >= 2000 {
		t.Errorf("ckpt=never engine recovery %.0f ms: the log scan is not streaming", ms)
	}
	if ms := v(t, rep, "1s/redo_ms"); ms >= 40 {
		t.Errorf("ckpt=1s engine recovery %.0f ms: the index rebuild is not streaming", ms)
	}
}

func TestShapeA8MediaFaults(t *testing.T) {
	rep := runExp(t, "a8")
	for _, label := range []string{"transient-errors", "latency-storm", "permanent-defect"} {
		if lost := v(t, rep, label+"/lost"); lost != 0 {
			t.Errorf("%s: %.0f acked commits lost", label, lost)
		}
		if viol := v(t, rep, label+"/violations"); viol != 0 {
			t.Errorf("%s: %.0f violating trials", label, viol)
		}
		if v(t, rep, label+"/acked") == 0 {
			t.Errorf("%s: no commits acked, campaign proves nothing", label)
		}
	}
	// Faults that clear must leave no backlog and no lingering degradation.
	for _, label := range []string{"transient-errors", "latency-storm"} {
		if s := v(t, rep, label+"/max_stranded_bytes"); s != 0 {
			t.Errorf("%s: %.0f bytes still stranded after the fault cleared", label, s)
		}
		if d := v(t, rep, label+"/degraded_trials"); d != 0 {
			t.Errorf("%s: %.0f trials still degraded after the fault cleared", label, d)
		}
	}
	// A defect that never clears must degrade every trial.
	if d := v(t, rep, "permanent-defect/degraded_trials"); d == 0 {
		t.Error("permanent-defect: no trial degraded (fault never bit?)")
	}
}

func TestShapeA9Replication(t *testing.T) {
	rep := runExp(t, "a9")
	// Every campaign must have real load behind it.
	for _, label := range []string{
		"local/power-cut", "quorum1/power-cut", "remote1/power-cut+dump-broken",
		"local/partition+cut+dump-broken", "quorum1/partition+cut+dump-broken",
		"quorum1/replica-crash+cut",
	} {
		if v(t, rep, label+"/acked") == 0 {
			t.Errorf("%s: no commits acked, campaign proves nothing", label)
		}
	}
	// Wherever the policy's invariant holds, zero acked commits are lost.
	for _, label := range []string{
		"local/power-cut", "quorum1/power-cut", "remote1/power-cut+dump-broken",
		"quorum1/partition+cut+dump-broken", "quorum1/replica-crash+cut",
	} {
		if lost := v(t, rep, label+"/lost"); lost != 0 {
			t.Errorf("%s: %.0f acked commits lost", label, lost)
		}
	}
	// The ablation: AckLocal under the double fault demonstrably loses —
	// without this, the quorum rows prove nothing.
	if v(t, rep, "local/partition+cut+dump-broken/lost") == 0 {
		t.Error("local acks lost nothing under partition+cut+dump-broken")
	}
	// The cost: a quorum ack pays a fabric round trip over a local ack.
	local := v(t, rep, "latency/local/p50_us")
	quorum := v(t, rep, "latency/quorum1/p50_us")
	if local == 0 || quorum == 0 {
		t.Fatal("latency stage missing")
	}
	if quorum <= local {
		t.Errorf("quorum p50 %.0fµs not above local p50 %.0fµs — no replication cost visible", quorum, local)
	}
}

// TestShapeA10 locks in both scale-out claims. With per-shard provisioning
// held constant a 4-shard fleet commits at least 2.5x the single-shard
// throughput while the commit-ack p50 stays within 20% (virtual-time figures
// are deterministic for a fixed seed: a regression lock, not a flaky perf
// assertion). And the N-aware sizing rule bites where EXPERIMENTS.md says it
// does: on the measured PSU it sizes 4 HDD shards and refuses 8.
func TestShapeA10(t *testing.T) {
	rep := runExp(t, "a10")
	one, four := v(t, rep, "shards=1/tps"), v(t, rep, "shards=4/tps")
	if one <= 0 || four < 2.5*one {
		t.Errorf("4-shard fleet at %.0f tps is under 2.5x the 1-shard %.0f tps", four, one)
	}
	p1, p4 := v(t, rep, "shards=1/commit_p50_ns"), v(t, rep, "shards=4/commit_p50_ns")
	if p4 < 0.8*p1 || p4 > 1.2*p1 {
		t.Errorf("4-shard commit p50 %.0fns drifted >20%% from 1-shard %.0fns", p4, p1)
	}
	if v(t, rep, "shards=4/bound_bytes") >= v(t, rep, "shards=1/bound_bytes") {
		t.Error("per-shard bound did not shrink with the shard count")
	}
	if v(t, rep, "shards=4/hdd_accepted") != 1 {
		t.Error("sizing rule refused 4 HDD shards")
	}
	if v(t, rep, "shards=8/hdd_accepted") != 0 {
		t.Error("sizing rule accepted 8 HDD shards: 16 worst-case seeks do not fit the hold-up window")
	}
}

// a11UnavailBound is each A11 campaign's unavailability p50 bound, in ms.
var a11UnavailBound = map[string]float64{"power-cut": 400, "isolation": 450, "coordinator+power-cut": 950}

func TestShapeA11Failover(t *testing.T) {
	rep := runExp(t, "a11")
	for _, label := range []string{"power-cut", "isolation", "coordinator+power-cut"} {
		if v(t, rep, label+"/acked") == 0 {
			t.Errorf("%s: no commits acked, campaign proves nothing", label)
		}
		// The headline claims: zero acked-quorum loss, zero split-brain,
		// every trial a single complete takeover.
		if lost := v(t, rep, label+"/lost"); lost != 0 {
			t.Errorf("%s: %.0f acked commits lost across takeover", label, lost)
		}
		if sb := v(t, rep, label+"/split_brain"); sb != 0 {
			t.Errorf("%s: single-writer invariant fired in %.0f trials", label, sb)
		}
		if inc := v(t, rep, label+"/incomplete"); inc != 0 {
			t.Errorf("%s: %.0f trials without a single clean takeover", label, inc)
		}
		// A takeover that cost no downtime would mean the fault never bit.
		// The bound is each campaign's window (221, 363 and 851 ms here, on
		// the virtual clock), plus margin. Detection on heartbeat silence
		// alone, with sessions that wait out their op timeout on the deposed
		// leader, fails the first two (731 and 510 ms); the composed
		// campaign's coordinator is down when the notice is sent, so it
		// keeps the heartbeat detector.
		// Folding on the boot path costs 160–170 ms more per campaign, and
		// reading the log a block at a time costs seconds.
		if p50 := v(t, rep, label+"/unavail_p50_ms"); p50 == 0 || p50 >= a11UnavailBound[label] {
			t.Errorf("%s: unavailability p50 %.0f ms, want a nonzero window under %.0f ms", label, p50, a11UnavailBound[label])
		}
		// Clients must have followed the promotion, not reconnected by luck.
		if v(t, rep, label+"/redirects") == 0 {
			t.Errorf("%s: no session ever redirected", label)
		}
	}
	// Only the healed partition replays a deposed epoch into fenced stores.
	if v(t, rep, "isolation/fence_rejections") == 0 {
		t.Error("isolation: healed deposed leader produced no fence rejections")
	}
}
