package power

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

func testMachine(seed int64, psu PSUConfig) (*sim.Sim, *Machine, *disk.HDD) {
	s := sim.New(seed)
	m := NewMachine(s, "m0", 4, psu)
	d := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{WriteCache: true})
	m.AttachDevice(d)
	return s, m, d
}

func TestCutPowerKillsDomainsAtDeadline(t *testing.T) {
	s, m, _ := testMachine(1, PSUTypical)
	dom := m.NewDomain("sw")
	var lastAlive sim.Time
	s.Spawn(dom, "app", func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
			lastAlive = p.Now()
		}
	})
	var holdup time.Duration
	s.After(10*time.Millisecond, func() { holdup = m.CutPower() })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if holdup < PSUTypical.HoldupMin || holdup > PSUTypical.HoldupMax {
		t.Fatalf("sampled holdup %v outside [%v,%v]", holdup, PSUTypical.HoldupMin, PSUTypical.HoldupMax)
	}
	deadline := 10*time.Millisecond + holdup
	if lastAlive.Duration() > deadline {
		t.Fatalf("proc alive at %v, after deadline %v", lastAlive, deadline)
	}
	if lastAlive.Duration() < deadline-2*time.Millisecond {
		t.Fatalf("proc died at %v, long before deadline %v (no ride-through?)", lastAlive, deadline)
	}
	if m.powered || !m.acFail {
		t.Fatal("power state wrong after DC loss")
	}
}

func TestInterruptDeliveredWithinLatency(t *testing.T) {
	s, m, _ := testMachine(1, PSUTypical)
	var interruptAt sim.Time = -1
	m.AddPowerFailHandler(func(p *sim.Proc) { interruptAt = p.Now() })
	s.After(5*time.Millisecond, func() { m.CutPower() })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	want := 5*time.Millisecond + PSUTypical.InterruptLatency
	if interruptAt.Duration() != want {
		t.Fatalf("interrupt at %v, want %v", interruptAt, want)
	}
}

func TestHandlerRacesDeadline(t *testing.T) {
	s, m, _ := testMachine(2, PSUConfig{Name: "tight", HoldupMin: 5 * time.Millisecond, HoldupMax: 5 * time.Millisecond, InterruptLatency: 100 * time.Microsecond})
	var progress time.Duration
	m.AddPowerFailHandler(func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
			progress += time.Millisecond
		}
	})
	s.After(0, func() { m.CutPower() })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Handler had 4.9ms: it completes 4 sleeps, then dies.
	if progress != 4*time.Millisecond {
		t.Fatalf("handler progressed %v, want exactly 4ms before the deadline killed it", progress)
	}
}

// TestDeviceLosesCacheAtDeadlineNotBefore: a cached write reads back while
// the rails hold up, and once power returns it reads what the platters held
// before it. The write is 4 MiB, ~135 ms of draining at track bandwidth and
// longer than any hold-up, so the tail read is still only in the cache when
// the rails drop.
func TestDeviceLosesCacheAtDeadlineNotBefore(t *testing.T) {
	s, m, d := testMachine(3, PSUTypical)
	written := bytes.Repeat([]byte{0xa5}, 4<<20)
	const tailLen = 8192
	tail := int64(len(written)-tailLen) / disk.SectorSize
	read := func(p *sim.Proc) []byte {
		buf := make([]byte, tailLen)
		if _, err := d.Read(p, tail, buf); err != nil {
			t.Errorf("read: %v", err)
		}
		return buf
	}
	var duringHoldup, afterRestore []byte
	m.AddPowerFailHandler(func(p *sim.Proc) {
		duringHoldup = read(p) // rails still up: cache intact
	})
	s.Spawn(m.NewDomain("sw"), "writer", func(p *sim.Proc) {
		_ = d.Write(p, 0, written, false)
		m.CutPower()
		p.Sleep(time.Hour) // will be killed
	})
	s.Spawn(nil, "check", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		m.RestorePower()
		afterRestore = read(p)
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(duringHoldup, written[:tailLen]) {
		t.Fatal("the write did not read back during hold-up (cache dropped early or handler after deadline)")
	}
	if !bytes.Equal(afterRestore, make([]byte, tailLen)) {
		t.Fatal("the write's tail survived power loss")
	}
}

func TestRestorePowerRevivesHardware(t *testing.T) {
	s, m, d := testMachine(4, PSUTypical)
	var ok bool
	s.Spawn(nil, "ctl", func(p *sim.Proc) {
		m.CutPower()
		p.Sleep(time.Second)
		m.RestorePower()
		if err := d.Write(p, 0, make([]byte, 512), true); err != nil {
			t.Errorf("write after restore: %v", err)
		}
		data, err := readN(p, d, 0, 1)
		ok = err == nil && len(data) == 512
	})
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("device unusable after power restore")
	}
	if !m.powered || m.acFail {
		t.Fatal("power flags wrong after restore")
	}
}

func TestCutPowerIdempotentDuringHoldup(t *testing.T) {
	s, m, _ := testMachine(5, PSUTypical)
	s.Spawn(nil, "ctl", func(p *sim.Proc) {
		first := m.CutPower()
		if first == 0 {
			t.Error("first CutPower returned 0")
		}
		if again := m.CutPower(); again != 0 {
			t.Error("second CutPower during hold-up acted")
		}
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if m.powered {
		t.Fatal("the hold-up window did not end in DC loss")
	}
}

func TestInterruptBudget(t *testing.T) {
	m := NewMachine(sim.New(1), "m", 2, PSUATXSpec)
	want := PSUATXSpec.HoldupMin - PSUATXSpec.InterruptLatency
	if got := m.InterruptBudget(); got != want {
		t.Fatalf("InterruptBudget = %v, want %v", got, want)
	}
}

// Property: the sampled hold-up always lies within the PSU profile's range,
// and the machine always ends up unpowered with all domains dead.
func TestHoldupSamplingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		s, m, _ := testMachine(seed, PSUMeasured)
		dom := m.NewDomain("sw")
		s.Spawn(dom, "app", func(p *sim.Proc) { p.Sleep(time.Hour) })
		var h time.Duration
		s.After(time.Millisecond, func() { h = m.CutPower() })
		if err := s.RunFor(2 * time.Second); err != nil {
			return false
		}
		return h >= PSUMeasured.HoldupMin && h <= PSUMeasured.HoldupMax &&
			!m.powered && dom.Dead()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleHandlersAllFire(t *testing.T) {
	s, m, _ := testMachine(7, PSUTypical)
	var fired []string
	m.AddPowerFailHandler(func(p *sim.Proc) { fired = append(fired, "a") })
	m.AddPowerFailHandler(func(p *sim.Proc) { fired = append(fired, "b") })
	s.After(time.Millisecond, func() { m.CutPower() })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("handlers fired: %v", fired)
	}
}

func TestRestoreClearsStaleHandlers(t *testing.T) {
	s, m, _ := testMachine(9, PSUTypical)
	var fires int
	m.AddPowerFailHandler(func(p *sim.Proc) { fires++ })
	s.Spawn(nil, "op", func(p *sim.Proc) {
		m.CutPower()
		p.Sleep(time.Second)
		m.RestorePower()
		// Second power cut: the stale handler must not fire again.
		m.CutPower()
		p.Sleep(time.Second)
	})
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("stale handler fired %d times, want 1", fires)
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d disk.Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*disk.SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}
