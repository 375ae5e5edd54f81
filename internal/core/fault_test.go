package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

// faultRig is a rig whose log partition sits behind a disk.Faulty wrapper,
// mirroring how internal/rig wires LogFault, and a defect the test can grow
// and repair.
type faultRig struct {
	*rig
	flt *disk.Faulty
	bad *defect
}

// defect is a grown defect that can be repaired, which a disk.Faulty's
// never is: writes into [lo, hi) fail with a transient disk.ErrIO before
// they reach the device, until the test repairs the range (hi = 0).
type defect struct {
	disk.Device
	lo, hi int64
}

func (d *defect) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if lba < d.hi && lba+int64(len(data)/disk.SectorSize) > d.lo {
		return fmt.Errorf("%w: grown defect at lba %d", disk.ErrIO, lba)
	}
	return d.Device.Write(p, lba, data, fua)
}

func newFaultRig(t *testing.T, seed int64, cfg Config) *faultRig {
	t.Helper()
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, err := disk.NewPartition(hdd, "log", 0, 262144)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	if err != nil {
		t.Fatal(err)
	}
	flt := disk.NewFaulty(logPart, disk.FaultConfig{Seed: seed + 1})
	bad := &defect{Device: flt}
	hvDom := m.NewDomain("hv")
	guest := m.NewDomain("guest")
	l, err := NewLogger(m, hvDom, bad, dump, SafeBufferSize(m, dump, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &faultRig{
		rig: &rig{s: s, m: m, hdd: hdd, logPart: logPart, dump: dump, hvDom: hvDom, guest: guest, l: l},
		flt: flt,
		bad: bad,
	}
}

// TestTransientDrainErrorRetriesWithoutDegrading opens a short window of
// certain write failure. The drainer's backoff must outlive the window, land
// every entry, release throttled writers, and never enter degraded mode.
func TestTransientDrainErrorRetriesWithoutDegrading(t *testing.T) {
	// Retry budget: attempts at 0, 2, 6, 14, 30, 62 ms — the fault clears at
	// 10ms, inside the budget.
	r := newFaultRig(t, 1, Config{MaxBuffer: 16384})
	r.flt.SetWriteErrorProb(1)
	r.s.After(10*time.Millisecond, func() { r.flt.SetWriteErrorProb(0) })
	writes := 8 // twice the buffer bound: the later writers must throttle
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			if err := r.l.Write(p, int64(i*8), pattern(4096, byte(i+1)), false); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.l.RapiStats()
	if st.BackingRetries.Value() == 0 {
		t.Fatal("fault window open but no backing retries counted")
	}
	if st.Degradations.Value() != 0 {
		t.Fatalf("degradations = %d, want 0 (fault cleared inside retry budget)", st.Degradations.Value())
	}
	if w := st.Writes.Value(); w != int64(writes) {
		t.Fatalf("writes acked = %d, want %d (throttled writer stranded by the fault?)", w, writes)
	}
	if occ := r.l.BufferedBytes(); occ != 0 {
		t.Fatalf("buffer not drained after fault cleared: %d bytes", occ)
	}
	r.s.Spawn(r.guest, "check", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			got, err := readN(p, r.logPart, int64(i*8), 8)
			if err != nil || !bytes.Equal(got, pattern(4096, byte(i+1))) {
				t.Errorf("entry %d not intact on media after retried drain", i)
				return
			}
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPermanentFaultDegradesAndRestores grows a bad-sector range under one
// buffered entry. The drain budget exhausts, the device degrades to
// synchronous pass-through (which must still be durable and must patch the
// stranded buffered copies), and when the range is repaired the probe drains
// the backlog and restores buffered service.
func TestPermanentFaultDegradesAndRestores(t *testing.T) {
	r := newFaultRig(t, 2, Config{})
	r.bad.lo, r.bad.hi = 0, 64 // writes into LBAs 0..64 fail until repaired
	oldB := pattern(4096, 2)
	newB := pattern(4096, 3)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		// Entry A sits in the bad range; entry B on good sectors. One failed
		// run fails the whole round, so both stay stranded together.
		if err := r.l.Write(p, 0, pattern(4096, 1), false); err != nil {
			t.Errorf("write A: %v", err)
		}
		if err := r.l.Write(p, 1000, oldB, false); err != nil {
			t.Errorf("write B: %v", err)
		}
		p.Sleep(100 * time.Millisecond) // the retry budget is spent at ≈62 ms
		if !r.l.IsDegraded() {
			t.Error("retry budget exhausted but logger not degraded")
			return
		}
		// Degraded write to a good LBA overlapping stranded B: must go
		// through synchronously AND patch B's buffered copy so neither the
		// probe rewrite nor the emergency dump can resurrect stale bytes.
		if err := r.l.Write(p, 1000, newB, false); err != nil {
			t.Errorf("pass-through write: %v", err)
			return
		}
		onDisk, err := readN(p, r.logPart, 1000, 8)
		if err != nil || !bytes.Equal(onDisk, newB) {
			t.Error("pass-through write not on media before ack")
		}
		// Reads while degraded still see the stranded entries, newest wins.
		got, err := readN(p, r.l, 0, 8)
		if err != nil || !bytes.Equal(got, pattern(4096, 1)) {
			t.Error("stranded entry A not visible through the overlay")
		}
		got, err = readN(p, r.l, 1000, 8)
		if err != nil || !bytes.Equal(got, newB) {
			t.Error("read of patched entry B did not return the newest data")
		}
		// Repair the media; the probe must drain the backlog and restore.
		r.bad.hi = 0
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.l.RapiStats()
	if st.Degradations.Value() != 1 {
		t.Fatalf("degradations = %d, want 1", st.Degradations.Value())
	}
	if st.PassThrough.Value() != 1 {
		t.Fatalf("pass-through writes = %d, want 1", st.PassThrough.Value())
	}
	if st.Restores.Value() != 1 {
		t.Fatalf("restores = %d, want 1 (probe never drained the backlog?)", st.Restores.Value())
	}
	if r.l.IsDegraded() {
		t.Fatal("logger still degraded after backlog drained")
	}
	if occ := r.l.BufferedBytes(); occ != 0 {
		t.Fatalf("stranded bytes remain after restore: %d", occ)
	}
	r.s.Spawn(r.guest, "check", func(p *sim.Proc) {
		got, err := readN(p, r.logPart, 0, 8)
		if err != nil || !bytes.Equal(got, pattern(4096, 1)) {
			t.Error("entry A not on media after repair")
		}
		got, err = readN(p, r.logPart, 1000, 8)
		if err != nil || !bytes.Equal(got, newB) {
			t.Error("media at B holds stale data (patchPending missed the probe rewrite)")
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

// assertRestoredAndEmpty runs the hypervisor on for 3 s after a guest crash
// and the media repair, and checks that the trusted drainer finished the job
// — the one property the paper says a guest crash cannot disturb.
func assertRestoredAndEmpty(t *testing.T, r *faultRig, when string) bool {
	t.Helper()
	if err := r.s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.l.IsDegraded() || r.l.BufferedBytes() != 0 {
		t.Errorf("%s: drainer wedged 3s after the repair: degraded=%v buffered=%d io lock free=%v",
			when, r.l.IsDegraded(), r.l.BufferedBytes(), r.l.io.Available() == 1)
		return false
	}
	return true
}

// TestGuestCrashInPassThroughDoesNotWedgeDrainer kills the guest inside a
// degraded pass-through write — its process holds the logger's I/O lock,
// parked in the disk — and then repairs the media. The probe drain must get
// the lock, land the stranded entry and restore buffered service.
func TestGuestCrashInPassThroughDoesNotWedgeDrainer(t *testing.T) {
	r := newFaultRig(t, 2, Config{})
	defer r.s.Close()
	r.bad.lo, r.bad.hi = 0, 64
	inPassThrough := false
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if err := r.l.Write(p, 0, pattern(4096, 1), false); err != nil {
			t.Errorf("write A: %v", err)
		}
		p.Sleep(100 * time.Millisecond)
		r.s.After(200*time.Microsecond, func() {
			inPassThrough = r.l.IsDegraded() && r.l.io.Available() == 0
			r.guest.Kill()
			r.bad.hi = 0
		})
		_ = r.l.Write(p, 1000, pattern(4096, 2), false)
		t.Error("guest survived its own crash")
	})
	if assertRestoredAndEmpty(t, r, "guest killed mid pass-through") && !inPassThrough {
		t.Fatal("vacuous: the guest was not holding the I/O lock in a degraded write when it was killed")
	}
}

// TestGuestCrashAtEveryEventOfDegradedWriters is crash-point enumeration at
// small scope: two guest writers fill a two-entry buffer stranded on a bad
// range, throttle, are woken into pass-through by the degradation and then
// contend for the I/O lock with each other and the probe drain. The same
// seed is replayed once per dispatched-event index k of the first 200 ms;
// after exactly k events the guest crashes and the range is repaired.
func TestGuestCrashAtEveryEventOfDegradedWriters(t *testing.T) {
	const window = 200 * time.Millisecond
	cfg := Config{MaxBuffer: 8192}
	var points, held, waiting, midGrant, wedged int
	for k := 0; ; k++ {
		r := newFaultRig(t, 3, cfg)
		r.bad.lo, r.bad.hi = 0, 8 // under writer 0's first write only
		for w := 0; w < 2; w++ {
			w := w
			r.s.Spawn(r.guest, fmt.Sprintf("db%d", w), func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					if err := r.l.Write(p, int64(w*1000+i*8), pattern(4096, byte(i)), false); err != nil {
						t.Errorf("writer %d write %d: %v", w, i, err)
					}
				}
			})
		}
		// granted: the last event handed the lock to a waiter that has not
		// run yet. Seen from outside only when the releaser does not queue
		// again in the same event, so midGrant is a lower bound.
		granted := false
		for i := 0; i < k; i++ {
			before := r.l.io.Waiters()
			if ok, err := r.s.Step(); err != nil || !ok {
				t.Fatalf("k=%d: step %d: ok=%v err=%v", k, i, ok, err)
			}
			granted = r.l.io.Waiters() < before
		}
		if r.s.Now().Duration() > window {
			r.s.Close()
			break
		}
		points++
		if r.l.io.Available() == 0 {
			held++
		}
		// Throttled writers stay parked until the degradation: the buffer
		// they wait on is stranded.
		if r.l.io.Waiters() > 0 || (r.l.RapiStats().Throttled.Value() > 0 && !r.l.IsDegraded()) {
			waiting++
		}
		if granted {
			midGrant++
		}
		r.guest.Kill()
		r.bad.hi = 0
		if !assertRestoredAndEmpty(t, r, fmt.Sprintf("guest killed after event %d (t=%v)", k, r.s.Now())) {
			wedged++
		}
		r.s.Close()
	}
	t.Logf("%d kill points in %v: %d with the I/O lock held, %d in a throttled or queued wait, ≥ %d between a grant and its resume; %d wedged",
		points, window, held, waiting, midGrant, wedged)
	if held == 0 || waiting == 0 || midGrant == 0 {
		t.Fatal("vacuous sweep: a class of kill point was never reached")
	}
}

// flakyDev fails the first failN writes with a wrapped transient (or
// permanent) error, then behaves normally. Deterministic by construction.
type flakyDev struct {
	disk.Device
	failN   int
	failErr error
	fails   int
}

func (f *flakyDev) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if f.failN > 0 {
		f.failN--
		f.fails++
		return fmt.Errorf("flaky: %w", f.failErr)
	}
	return f.Device.Write(p, lba, data, fua)
}

// emergencyRig builds a rig whose dump zone is wrapped in a flakyDev.
func emergencyRig(t *testing.T, seed int64, fd *flakyDev) *rig {
	t.Helper()
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, err := disk.NewPartition(hdd, "log", 0, 262144)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	if err != nil {
		t.Fatal(err)
	}
	fd.Device = dump
	hvDom := m.NewDomain("hv")
	guest := m.NewDomain("guest")
	l, err := NewLogger(m, hvDom, logPart, fd, SafeBufferSize(m, dump, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, m: m, hdd: hdd, logPart: logPart, dump: dump, hvDom: hvDom, guest: guest, l: l}
}

// TestEmergencyDumpRetriesTransientError: the dump write fails transiently a
// few times inside the hold-up budget; the dump must still land and recovery
// must replay it in full.
func TestEmergencyDumpRetriesTransientError(t *testing.T) {
	fd := &flakyDev{failN: 3, failErr: disk.ErrIO}
	r := emergencyRig(t, 8, fd)
	payload := pattern(8192, 0x5a)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if err := r.l.Write(p, 64, payload, false); err != nil {
			t.Errorf("write: %v", err)
		}
		r.m.CutPower()
		p.Sleep(time.Hour)
	})
	var rep RecoveryReport
	var got []byte
	r.s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.m.RestorePower()
		boot := r.s.NewDomain("boot")
		r.s.Spawn(boot, "recover", func(p *sim.Proc) {
			var err error
			rep, err = r.l.Recover(p, nil)
			if err != nil {
				t.Errorf("recover: %v", err)
				return
			}
			got, _ = readN(p, r.logPart, 64, 16)
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.l.RapiStats()
	if st.DumpRetries.Value() != 3 {
		t.Fatalf("dump retries = %d, want 3", st.DumpRetries.Value())
	}
	if st.DumpFailures.Value() != 0 {
		t.Fatalf("dump failures = %d, want 0", st.DumpFailures.Value())
	}
	if !rep.HadDump || rep.Torn {
		t.Fatalf("dump not recovered intact (HadDump=%v Torn=%v)", rep.HadDump, rep.Torn)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("acked write lost despite retried dump")
	}
}

// TestEmergencyDumpPermanentFailureIsCounted: a permanent dump-zone error is
// surrendered immediately and shows up as DumpFailures, with no dump header
// on media — distinct from a torn dump.
func TestEmergencyDumpPermanentFailureIsCounted(t *testing.T) {
	fd := &flakyDev{failN: 1 << 30, failErr: disk.ErrOutOfRange} // permanent
	r := emergencyRig(t, 9, fd)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 0, pattern(4096, 1), false)
		r.m.CutPower()
		p.Sleep(time.Hour)
	})
	var rep RecoveryReport
	r.s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.m.RestorePower()
		boot := r.s.NewDomain("boot")
		r.s.Spawn(boot, "recover", func(p *sim.Proc) {
			rep, _ = r.l.Recover(p, nil)
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.l.RapiStats()
	if st.DumpFailures.Value() != 1 {
		t.Fatalf("dump failures = %d, want 1", st.DumpFailures.Value())
	}
	if fd.fails != 1 {
		t.Fatalf("dump write attempted %d times, want 1 (permanent errors must not burn the budget)", fd.fails)
	}
	if rep.HadDump || rep.DumpFailures != 1 {
		t.Fatalf("recovery report %+v: want no dump and the one failed dump write", rep)
	}
}
