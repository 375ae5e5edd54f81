package hv

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

func TestVdiskDelegatesGeometry(t *testing.T) {
	_, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	vd := g.LogDisk()
	if vd.Sectors() != logd.Sectors() {
		t.Fatal("geometry not delegated")
	}
}

func TestVdiskReadPaysExitCost(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	var readCost time.Duration
	s.Spawn(g.Domain(), "io", func(p *sim.Proc) {
		_ = g.LogDisk().Write(p, 0, make([]byte, 512), true)
		start := p.Now()
		if _, err := readN(p, g.LogDisk(), 0, 1); err != nil {
			t.Errorf("read: %v", err)
		}
		readCost = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if readCost < exitCost {
		t.Fatalf("read cost %v missing exit cost", readCost)
	}
}

func TestSetLogBackingSwapsDevice(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	g := h.NewGuest("db", logd, datad)
	replacement := disk.NewMem(s, disk.MemConfig{Name: "log2", Persistent: true})
	g.SetLogBacking(replacement)
	var got []byte
	s.Spawn(g.Domain(), "io", func(p *sim.Proc) {
		if err := g.LogDisk().Write(p, 5, bytes.Repeat([]byte{7}, 512), true); err != nil {
			t.Errorf("write: %v", err)
		}
		got, _ = readN(p, replacement, 5, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 512)) {
		t.Fatal("write did not reach the replacement backing")
	}
}

func TestHypervisorRebootRevivesDomain(t *testing.T) {
	s, m, logd, datad := rig(1)
	h := New(m, nil)
	_ = h.NewGuest("db", logd, datad)
	s.Spawn(nil, "op", func(p *sim.Proc) {
		m.CutPower()
		p.Sleep(time.Second)
		if !h.Domain().Dead() {
			t.Error("hypervisor domain alive after power loss")
		}
		m.RestorePower()
		h.Reboot()
		if h.Domain().Dead() {
			t.Error("hypervisor domain dead after reboot")
		}
	})
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNativeCPUAccessor(t *testing.T) {
	_, m, logd, datad := rig(1)
	n := NewNative(m, logd, datad)
	if n.CPU() != m.CPU() {
		t.Fatal("native CPU pool is not the machine's")
	}
	if n.Sim() != m.Sim() {
		t.Fatal("native Sim accessor")
	}
}
