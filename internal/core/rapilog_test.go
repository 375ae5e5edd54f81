package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

// rig builds machine + HDD with a log partition and dump zone + logger.
type rig struct {
	s       *sim.Sim
	m       *power.Machine
	hdd     *disk.HDD
	logPart *disk.Partition
	dump    *disk.Partition
	hvDom   *sim.Domain
	guest   *sim.Domain
	l       *Logger
}

func newRig(t *testing.T, seed int64, psu power.PSUConfig, cfg Config) *rig {
	t.Helper()
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, psu)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, err := disk.NewPartition(hdd, "log", 0, 262144) // 128 MiB
	if err != nil {
		t.Fatal(err)
	}
	dump, err := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	if err != nil {
		t.Fatal(err)
	}
	hvDom := m.NewDomain("hv")
	guest := m.NewDomain("guest")
	l, err := NewLogger(m, hvDom, logPart, dump, SafeBufferSize(m, dump, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, m: m, hdd: hdd, logPart: logPart, dump: dump, hvDom: hvDom, guest: guest, l: l}
}

func pattern(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = seed + byte(i%13)
	}
	return d
}

func TestAckLatencyIsMicroseconds(t *testing.T) {
	r := newRig(t, 1, power.PSUMeasured, Config{})
	var ack time.Duration
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		start := p.Now()
		if err := r.l.Write(p, 0, pattern(4096, 1), false); err != nil {
			t.Errorf("write: %v", err)
		}
		ack = p.Now().Sub(start)
	})
	if err := r.s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ack > 50*time.Microsecond {
		t.Fatalf("buffered write acked in %v, want microseconds", ack)
	}
	if r.l.RapiStats().Writes.Value() != 1 {
		t.Fatal("write not counted")
	}
}

func TestDrainReachesBackingInOrder(t *testing.T) {
	r := newRig(t, 1, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			_ = r.l.Write(p, int64(i*8), pattern(4096, byte(i)), false)
		}
	})
	var onMedia [][]byte
	r.s.Spawn(nil, "check", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond) // plenty for the drain
		for i := 0; i < 8; i++ {
			d, err := readN(p, r.logPart, int64(i*8), 8)
			if err != nil {
				t.Errorf("read: %v", err)
			}
			onMedia = append(onMedia, d)
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for i, d := range onMedia {
		if !bytes.Equal(d, pattern(4096, byte(i))) {
			t.Fatalf("drained data %d mismatch", i)
		}
	}
	if r.l.BufferedBytes() != 0 {
		t.Fatalf("buffer not empty after drain: %d bytes", r.l.BufferedBytes())
	}
}

func TestBufferBoundNeverExceeded(t *testing.T) {
	r := newRig(t, 2, power.PSUMeasured, Config{MaxBuffer: 64 * 1024})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			_ = r.l.Write(p, int64(i*8), pattern(4096, byte(i)), false)
		}
	})
	if err := r.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if peak := r.l.RapiStats().Occupancy.Peak(); peak > 64*1024 {
		t.Fatalf("buffer peaked at %d, bound 65536", peak)
	}
	if r.l.RapiStats().Throttled.Value() == 0 {
		t.Fatal("200×4KiB against a 64KiB bound never throttled")
	}
	if r.l.RapiStats().Writes.Value() != 200 {
		t.Fatalf("only %d/200 writes completed (throttled writer starved?)", r.l.RapiStats().Writes.Value())
	}
}

func TestGuestCrashDoesNotLoseBufferedData(t *testing.T) {
	r := newRig(t, 3, power.PSUMeasured, Config{})
	payload := pattern(8192, 0x42)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if err := r.l.Write(p, 100, payload, false); err != nil {
			t.Errorf("write: %v", err)
		}
		r.guest.Kill() // the guest OS dies right after the ack
	})
	var got []byte
	r.s.Spawn(nil, "check", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		got, _ = readN(p, r.logPart, 100, 16)
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("acknowledged write lost after guest crash (hypervisor drain failed)")
	}
}

func TestPowerFailureDumpAndRecover(t *testing.T) {
	r := newRig(t, 4, power.PSUMeasured, Config{})
	var acked [][2]interface{} // lba, data
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			lba := int64(i * 16)
			data := pattern(8192, byte(i+1))
			if err := r.l.Write(p, lba, data, false); err != nil {
				return
			}
			acked = append(acked, [2]interface{}{lba, data})
		}
		r.m.CutPower() // plug pulled right after the 20th ack
		p.Sleep(time.Hour)
	})
	var rep RecoveryReport
	var verified bool
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
			for _, a := range acked {
				lba, data := a[0].(int64), a[1].([]byte)
				got, err := readN(p, r.logPart, lba, len(data)/512)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("acked write at lba %d not durable after recovery", lba)
					return
				}
			}
			verified = true
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(acked) != 20 {
		t.Fatalf("only %d writes acked before power cut", len(acked))
	}
	if !verified {
		t.Fatal("verification did not complete")
	}
	if !rep.HadDump {
		t.Fatal("no dump found (everything drained already? timing too generous)")
	}
	if rep.Torn {
		t.Fatal("dump was torn despite safe buffer bound")
	}
	if r.l.RapiStats().EmergencyRuns.Value() != 1 {
		t.Fatal("emergency flush did not run")
	}
}

func TestRecoverIsIdempotent(t *testing.T) {
	r := newRig(t, 5, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 0, pattern(4096, 7), false)
		r.m.CutPower()
		p.Sleep(time.Hour)
	})
	r.s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.m.RestorePower()
		boot := r.s.NewDomain("boot")
		r.s.Spawn(boot, "recover", func(p *sim.Proc) {
			rep1, err := r.l.Recover(p, nil)
			if err != nil {
				t.Errorf("first recover: %v", err)
			}
			rep2, err := r.l.Recover(p, nil)
			if err != nil {
				t.Errorf("second recover: %v", err)
			}
			if rep1.HadDump && rep2.HadDump {
				t.Error("second Recover replayed an already-consumed dump")
			}
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestEmergencyWithEmptyBufferLeavesNoDump(t *testing.T) {
	r := newRig(t, 6, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 0, pattern(4096, 1), false)
		p.Sleep(time.Second) // drain completes
		r.m.CutPower()
		p.Sleep(time.Hour)
	})
	r.s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(3 * time.Second)
		r.m.RestorePower()
		boot := r.s.NewDomain("boot")
		r.s.Spawn(boot, "recover", func(p *sim.Proc) {
			rep, err := r.l.Recover(p, nil)
			if err != nil {
				t.Errorf("recover: %v", err)
			}
			if rep.HadDump {
				t.Error("dump written despite empty buffer")
			}
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUnsafeOversizedBufferTearsOnTightPSU(t *testing.T) {
	// ATX-spec hold-up is too short to dump megabytes: the deadline lands
	// mid-dump and recovery sees a torn prefix. This is ablation A3's
	// mechanism and exactly why SafeBufferSize exists.
	s := sim.New(7)
	m := power.NewMachine(s, "m0", 4, power.PSUATXSpec)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, _ := disk.NewPartition(hdd, "log", 0, 262144)
	dump, _ := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	hvDom := m.NewDomain("hv")
	guest := m.NewDomain("guest")
	l, err := NewLogger(m, hvDom, logPart, dump, SafeBufferSize(m, dump, 1), Config{MaxBuffer: 8 << 20, Unsafe: true})
	if err != nil {
		t.Fatal(err)
	}
	var acked int
	s.Spawn(guest, "db", func(p *sim.Proc) {
		for i := 0; i < 1500; i++ {
			if err := l.Write(p, int64(i*8), pattern(4096, byte(i)), false); err != nil {
				return
			}
			acked++
		}
		m.CutPower()
		p.Sleep(time.Hour)
	})
	var rep RecoveryReport
	s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		m.RestorePower()
		boot := s.NewDomain("boot")
		s.Spawn(boot, "recover", func(p *sim.Proc) {
			rep, _ = l.Recover(p, nil)
		})
	})
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !rep.HadDump {
		t.Fatal("no dump header on media at all")
	}
	if !rep.Torn {
		t.Fatalf("dump not torn (%d entries recovered) — expected the ATX deadline to cut it off", rep.Entries)
	}
	if rep.Entries >= acked {
		t.Fatalf("recovered %d >= acked %d, expected losses", rep.Entries, acked)
	}
}

func TestNewLoggerRejectsUnsafeBound(t *testing.T) {
	s := sim.New(8)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, _ := disk.NewPartition(hdd, "log", 0, 262144)
	dump, _ := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	safe := SafeBufferSize(m, dump, 1)
	if safe <= 0 {
		t.Fatal("no safe buffer for the measured PSU (model broken)")
	}
	if _, err := NewLogger(m, m.NewDomain("hv"), logPart, dump, safe, Config{MaxBuffer: safe * 2}); err == nil {
		t.Fatal("oversized MaxBuffer accepted without Unsafe")
	}
	l, err := NewLogger(m, m.NewDomain("hv2"), logPart, dump, safe, Config{MaxBuffer: safe * 2, Unsafe: true})
	if err != nil {
		// Still subject to the zone capacity check, which 2×safe passes here.
		t.Fatalf("Unsafe oversize rejected: %v", err)
	}
	if l.SafeBound() != safe {
		t.Fatalf("Unsafe logger's SafeBound %d, want the safe bound %d", l.SafeBound(), safe)
	}
}

func TestNewLoggerRejectsHopelessPSU(t *testing.T) {
	s := sim.New(9)
	// Hold-up shorter than the interrupt latency: no budget at all.
	m := power.NewMachine(s, "m0", 4, power.PSUConfig{
		Name: "hopeless", HoldupMin: time.Millisecond, HoldupMax: time.Millisecond,
		InterruptLatency: 2 * time.Millisecond,
	})
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	m.AttachDevice(hdd)
	logPart, _ := disk.NewPartition(hdd, "log", 0, 262144)
	dump, _ := disk.NewDumpZone(hdd, "dump", 262144, 262144)
	if _, err := NewLogger(m, m.NewDomain("hv"), logPart, dump, SafeBufferSize(m, dump, 1), Config{}); err == nil {
		t.Fatal("logger created with zero flush budget")
	}
}

func TestOversizedSingleWriteRejected(t *testing.T) {
	r := newRig(t, 10, power.PSUMeasured, Config{MaxBuffer: 4096})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		err := r.l.Write(p, 0, pattern(8192, 1), false)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized write: %v", err)
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSafeBufferSizeScalesWithHoldup(t *testing.T) {
	s := sim.New(11)
	mk := func(psu power.PSUConfig) int64 {
		m := power.NewMachine(s, "m-"+psu.Name, 4, psu)
		hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
		dump, _ := disk.NewDumpZone(hdd, "dump", 0, 1<<20)
		return SafeBufferSize(m, dump, 1)
	}
	spec := mk(power.PSUATXSpec)
	typ := mk(power.PSUTypical)
	meas := mk(power.PSUMeasured)
	if !(spec < typ && typ < meas) {
		t.Fatalf("SafeBufferSize not monotone in hold-up: %d, %d, %d", spec, typ, meas)
	}
	if meas <= 0 {
		t.Fatal("measured PSU gives no budget")
	}
}

func TestWriteValidation(t *testing.T) {
	r := newRig(t, 12, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if err := r.l.Write(p, 0, pattern(100, 1), false); !errors.Is(err, disk.ErrMisaligned) {
			t.Errorf("misaligned: %v", err)
		}
		if err := r.l.Write(p, r.l.Sectors(), pattern(512, 1), false); !errors.Is(err, disk.ErrOutOfRange) {
			t.Errorf("out of range: %v", err)
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

// The central durability property, randomised: the logger refines a disk
// on which every acknowledged write is already durable. The writes are
// appends and rewrites — of a recent write's exact extent (absorbed while it
// is still buffered, a new entry once its drain has begun) or of a range
// overlapping one — which is the log tail's traffic: most of a commit-bound
// workload's log writes rewrite its tail block. After a power cut at a
// random moment and the one dump-recovery path, every sector an
// acknowledged write touched holds the bytes of the last acknowledged write
// to it: with overlaps, "each acked write's bytes are present" is the wrong
// oracle.
func TestDurabilityUnderRandomPowerCutProperty(t *testing.T) {
	const ss = disk.SectorSize
	// What the cases reached, summed: rewrites absorbed in place, rewrites
	// of an entry the drain had taken, rewrites a newer overlapping entry
	// kept from being absorbed, and dumps that recovery replayed.
	var absorbed, inFlight, shadowed, replayed int
	prop := func(seed int64, cutAfterWrites uint8) bool {
		r := newRig(t, seed, power.PSUMeasured, Config{})
		rng := r.s.Rand()
		cut := int(cutAfterWrites%40) + 1
		image := make(map[int64][]byte) // sector → the last acked write's bytes there
		type extent struct {
			lba int64
			n   int // sectors
		}
		var written []extent
		r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
			tail := int64(0)
			for i := 1; ; i++ {
				w := extent{tail, 1 + rng.Intn(16)}
				if len(written) > 0 {
					prev := written[len(written)-1-rng.Intn(min(len(written), 4))]
					switch rng.Intn(3) {
					case 0:
						w = prev
					case 1:
						w = extent{prev.lba + int64(rng.Intn(prev.n)), 1 + rng.Intn(16)}
					}
				}
				sh, fl := rewriteClass(&r.l.buf, w.lba, w.n)
				shadowed, inFlight = shadowed+sh, inFlight+fl
				data := pattern(w.n*ss, byte(i))
				if err := r.l.Write(p, w.lba, data, false); err != nil {
					return
				}
				for k := 0; k < w.n; k++ {
					image[w.lba+int64(k)] = data[k*ss : (k+1)*ss]
				}
				written = append(written, w)
				tail = max(tail, w.lba+int64(w.n))
				if i >= cut {
					r.m.CutPower()
					p.Sleep(time.Hour)
				}
				if rng.Intn(3) == 0 {
					p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
			}
		})
		ok := true
		r.s.Spawn(nil, "operator", func(p *sim.Proc) {
			p.Sleep(3 * time.Second)
			r.m.RestorePower()
			boot := r.s.NewDomain("boot")
			r.s.Spawn(boot, "recover", func(p *sim.Proc) {
				rep, err := r.l.Recover(p, nil)
				if err != nil {
					t.Logf("seed=%d: recover: %v", seed, err)
					ok = false
					return
				}
				if rep.Entries > 0 {
					replayed++
				}
				for lba, want := range image {
					if got, err := readN(p, r.logPart, lba, 1); err != nil || !bytes.Equal(got, want) {
						t.Logf("seed=%d cut=%d: sector %d does not hold its last acked write", seed, cut, lba)
						ok = false
						return
					}
				}
			})
		})
		if err := r.s.RunFor(10 * time.Second); err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		absorbed += int(r.l.RapiStats().Absorbed.Value())
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("100 cases: %d rewrites absorbed, %d of an entry in flight, %d shadowed; %d dumps replayed",
		absorbed, inFlight, shadowed, replayed)
	if absorbed == 0 || inFlight == 0 || shadowed == 0 || replayed == 0 {
		t.Fatal("vacuous: a class of rewrite, or a replayed dump, was never reached")
	}
}

func TestDrainCoalescesContiguousWrites(t *testing.T) {
	r := newRig(t, 13, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		// 16 back-to-back 4KiB appends: classic log tail behaviour.
		for i := 0; i < 16; i++ {
			_ = r.l.Write(p, int64(i*8), pattern(4096, byte(i)), false)
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// All 16 appends should drain in very few physical writes.
	w := r.hdd.Stats().Writes.Value()
	if w > 4 {
		t.Fatalf("drain used %d physical writes for 16 contiguous appends, want coalescing", w)
	}
	if r.l.RapiStats().DrainedBytes.Value() != 16*4096 {
		t.Fatalf("drained bytes = %d", r.l.RapiStats().DrainedBytes.Value())
	}
}

func TestLoggerDeviceAccessors(t *testing.T) {
	r := newRig(t, 14, power.PSUMeasured, Config{})
	if r.l.Sectors() != r.logPart.Sectors() {
		t.Fatal("geometry not delegated")
	}
	if r.l.MaxBuffer() <= 0 {
		t.Fatal("accessor defaults wrong")
	}
}

func TestUPSHoldupIsZoneCapped(t *testing.T) {
	// With a UPS-class hold-up, the budget term is enormous and the dump
	// zone's payload capacity becomes the binding constraint.
	s := sim.New(15)
	m := power.NewMachine(s, "m0", 4, power.PSUWithUPS)
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{})
	dump, _ := disk.NewDumpZone(hdd, "dump", 0, 131072) // 64 MiB
	safe := SafeBufferSize(m, dump, 1)
	if want := zonePayloadCapacity(dump); safe != want {
		t.Fatalf("UPS safe bound %d, want zone cap %d", safe, want)
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d disk.Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*disk.SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}
