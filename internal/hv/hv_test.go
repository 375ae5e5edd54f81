package hv

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

func rig(seed int64) (*sim.Sim, *power.Machine, *disk.Mem, *disk.Mem) {
	s := sim.New(seed)
	m := power.NewMachine(s, "m0", 4, power.PSUTypical)
	logd := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true})
	datad := disk.NewMem(s, disk.MemConfig{Name: "data", Persistent: true})
	m.AttachDevice(logd)
	m.AttachDevice(datad)
	return s, m, logd, datad
}

func TestNativePlatformIdentityCosts(t *testing.T) {
	s, m, logd, datad := rig(1)
	n := NewNative(m, logd, datad)
	if n.CPUTime(time.Millisecond) != time.Millisecond {
		t.Fatal("native CPU time scaled")
	}
	if n.LogDisk() != disk.Device(logd) || n.DataDisk() != disk.Device(datad) {
		t.Fatal("native disks are not the raw devices")
	}
	var direct, viaPlatform sim.Time
	s.Spawn(nil, "a", func(p *sim.Proc) {
		start := p.Now()
		_ = logd.Write(p, 0, make([]byte, 512), true)
		direct = p.Now() - start
	})
	s.Spawn(nil, "b", func(p *sim.Proc) {
		start := p.Now()
		_ = n.LogDisk().Write(p, 1, make([]byte, 512), true)
		viaPlatform = p.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if direct != viaPlatform {
		t.Fatalf("native platform added I/O cost: %v vs %v", viaPlatform, direct)
	}
}

func TestGuestIOPaysExitCost(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var raw, virt time.Duration
	s.Spawn(nil, "raw", func(p *sim.Proc) {
		start := p.Now()
		_ = logd.Write(p, 0, make([]byte, 512), true)
		raw = p.Now().Sub(start)
	})
	s.Spawn(g.Domain(), "virt", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let raw finish first
		start := p.Now()
		_ = g.LogDisk().Write(p, 1, make([]byte, 512), true)
		virt = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := virt - raw; got != exitCost {
		t.Fatalf("exit cost = %v, want %v", got, exitCost)
	}
}

func TestGuestCPUOverhead(t *testing.T) {
	_, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	want := time.Millisecond + time.Duration(cpuOverhead*float64(time.Millisecond))
	if got := g.CPUTime(time.Millisecond); got != want || want == time.Millisecond {
		t.Fatalf("CPUTime = %v, want %v", got, want)
	}
}

func TestGuestCrashSparesHypervisor(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var hvAlive, guestAlive bool
	s.Spawn(h.Domain(), "hvproc", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		hvAlive = true
	})
	s.Spawn(g.Domain(), "guestproc", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		guestAlive = true
	})
	s.After(time.Millisecond, g.Crash)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !hvAlive {
		t.Fatal("hypervisor proc died on guest crash")
	}
	if guestAlive {
		t.Fatal("guest proc survived guest crash")
	}
}

func TestPowerLossKillsHypervisorToo(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var hvAlive bool
	s.Spawn(h.Domain(), "hvproc", func(p *sim.Proc) {
		p.Sleep(time.Second)
		hvAlive = true
	})
	s.Spawn(g.Domain(), "guestproc", func(p *sim.Proc) { p.Sleep(time.Second) })
	s.After(time.Millisecond, func() { m.CutPower() })
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if hvAlive {
		t.Fatal("hypervisor survived power loss (verification does not stop physics)")
	}
	if !h.Domain().Dead() || !g.Domain().Dead() {
		t.Fatal("domains not dead after power loss")
	}
}

func TestRebootRevivesDomains(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var recovered bool
	s.Spawn(nil, "ctl", func(p *sim.Proc) {
		m.CutPower()
		p.Sleep(time.Second)
		m.RestorePower()
		h.Reboot()
		g.Reboot()
		s.Spawn(g.Domain(), "recovery", func(p *sim.Proc) { recovered = true })
	})
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("recovery proc did not run after reboot")
	}
}

func TestVdiskPassthroughData(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var got []byte
	s.Spawn(g.Domain(), "io", func(p *sim.Proc) {
		payload := make([]byte, 1024)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := g.DataDisk().Write(p, 7, payload, false); err != nil {
			t.Errorf("write: %v", err)
		}
		got, _ = readN(p, g.DataDisk(), 7, 2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 || got[1] != 1 || got[513] != 1 {
		t.Fatal("vdisk passthrough corrupted data")
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d disk.Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*disk.SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}
