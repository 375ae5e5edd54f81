// Package hv models the virtualisation layer RapiLog is built on: a
// dependable (seL4-based, formally verified) hypervisor hosting a database
// guest VM.
//
// The paper's argument uses exactly one property of the verified hypervisor:
// it does not crash due to software faults, so memory it holds survives any
// guest crash. We encode that property structurally — the hypervisor's crash
// domain is killed only by power loss, never by software faults — rather
// than modelling seL4 internals. The cost side of virtualisation is modelled
// too: every virtual disk operation pays an exit cost, and guest CPU burns
// are inflated by a fixed overhead, which is what experiment E4 measures.
//
// The Platform interface abstracts "where the database stack runs" so the
// same engine code drives all four evaluation configurations: native,
// native with unsafe commits, virtualised pass-through, and virtualised
// with the RapiLog log device.
package hv

import (
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Platform is the world as seen by a database stack: a crash domain to run
// in, a log and a data block device, CPU cores, and a CPU-time scaling that
// accounts for virtualisation overhead.
type Platform interface {
	// Sim returns the owning simulation.
	Sim() *sim.Sim
	// Domain is the crash domain database processes run in.
	Domain() *sim.Domain
	// LogDisk returns the device holding the write-ahead log.
	LogDisk() disk.Device
	// DataDisk returns the device holding table/heap pages.
	DataDisk() disk.Device
	// CPU returns the machine's core pool (re-fetch after reboot).
	CPU() *sim.Resource
	// CPUTime scales a nominal CPU burst by the platform's overhead.
	CPUTime(d time.Duration) time.Duration
	// Crash kills the platform's software stack (OS/DBMS), leaving the
	// machine powered. What survives depends on the configuration.
	Crash()
	// Reboot revives the crash domain so recovery code can run.
	Reboot()
}

// Native runs the database directly on the machine: no hypervisor, no exit
// costs, and nothing between the DBMS and the disks. A Crash models an OS
// panic; anything buffered in software is gone.
type Native struct {
	machine *power.Machine
	dom     *sim.Domain
	logDev  disk.Device
	dataDev disk.Device
}

// NewNative creates a native platform on machine with the given devices.
func NewNative(machine *power.Machine, logDev, dataDev disk.Device) *Native {
	return &Native{
		machine: machine,
		dom:     machine.NewDomain("native-os"),
		logDev:  logDev,
		dataDev: dataDev,
	}
}

// Sim implements Platform.
func (n *Native) Sim() *sim.Sim { return n.machine.Sim() }

// Domain implements Platform.
func (n *Native) Domain() *sim.Domain { return n.dom }

// LogDisk implements Platform.
func (n *Native) LogDisk() disk.Device { return n.logDev }

// DataDisk implements Platform.
func (n *Native) DataDisk() disk.Device { return n.dataDev }

// CPU implements Platform.
func (n *Native) CPU() *sim.Resource { return n.machine.CPU() }

// CPUTime implements Platform: no overhead.
func (n *Native) CPUTime(d time.Duration) time.Duration { return d }

// Crash implements Platform.
func (n *Native) Crash() { n.dom.Kill() }

// Reboot implements Platform.
func (n *Native) Reboot() { n.dom.Revive() }

// The virtualisation cost model.
const (
	// exitCost is charged on every virtual disk operation: the VM exit,
	// request translation, and re-entry.
	exitCost = 15 * time.Microsecond
	// cpuOverhead inflates guest CPU bursts (shadow paging, interrupt
	// virtualisation).
	cpuOverhead = 0.05
)

// Hypervisor is the dependable layer: its domain dies only with machine
// power. Code that must survive guest crashes (the RapiLog drain) runs here.
type Hypervisor struct {
	machine *power.Machine
	dom     *sim.Domain
	exits   *metrics.Counter
}

// New creates a hypervisor on machine. o, when set, counts VM exits
// ("hv.exits") on every virtual disk operation.
func New(machine *power.Machine, o *obs.Obs) *Hypervisor {
	return &Hypervisor{
		machine: machine,
		dom:     machine.NewDomain("hypervisor"),
		exits:   o.Registry().Counter("hv.exits"),
	}
}

// Domain returns the hypervisor's crash domain — the verified, crash-free
// zone. It is killed only by power loss.
func (h *Hypervisor) Domain() *sim.Domain { return h.dom }

// Reboot revives the hypervisor domain after a power cycle.
func (h *Hypervisor) Reboot() { h.dom.Revive() }

// Guest is a virtual machine hosted on the hypervisor. Its disks are
// virtual devices: every operation pays the exit cost before reaching
// whatever backs it (a raw partition pass-through, or the RapiLog device).
type Guest struct {
	hv      *Hypervisor
	dom     *sim.Domain
	logDev  disk.Device
	dataDev disk.Device
}

// NewGuest creates a guest whose virtual log and data disks are backed by
// the given devices. Pass the raw log partition for a pass-through
// configuration, or a RapiLog device for the interposed one.
func (h *Hypervisor) NewGuest(name string, logBacking, dataBacking disk.Device) *Guest {
	return &Guest{
		hv:      h,
		dom:     h.machine.NewDomain(name),
		logDev:  &vdisk{dev: logBacking, hv: h},
		dataDev: &vdisk{dev: dataBacking, hv: h},
	}
}

// Sim implements Platform.
func (g *Guest) Sim() *sim.Sim { return g.hv.machine.Sim() }

// Domain implements Platform.
func (g *Guest) Domain() *sim.Domain { return g.dom }

// LogDisk implements Platform.
func (g *Guest) LogDisk() disk.Device { return g.logDev }

// DataDisk implements Platform.
func (g *Guest) DataDisk() disk.Device { return g.dataDev }

// CPU implements Platform.
func (g *Guest) CPU() *sim.Resource { return g.hv.machine.CPU() }

// CPUTime implements Platform: guest CPU pays the virtualisation overhead.
func (g *Guest) CPUTime(d time.Duration) time.Duration {
	return d + time.Duration(float64(d)*cpuOverhead)
}

// Crash implements Platform: the guest OS/DBMS dies; the hypervisor — and
// anything it buffers — survives. This is the property verification buys.
func (g *Guest) Crash() { g.dom.Kill() }

// Reboot implements Platform.
func (g *Guest) Reboot() { g.dom.Revive() }

// SetLogBacking swaps the device behind the guest's virtual log disk. Used
// after a power cycle, when a fresh RapiLog instance replaces the one that
// died with the machine.
func (g *Guest) SetLogBacking(dev disk.Device) {
	g.logDev = &vdisk{dev: dev, hv: g.hv}
}

// vdisk wraps a backing device with the per-operation exit cost.
type vdisk struct {
	dev disk.Device
	hv  *Hypervisor
}

func (v *vdisk) Sectors() int64 { return v.dev.Sectors() }

// exit charges one VM exit and counts it.
func (v *vdisk) exit(p *sim.Proc) {
	v.hv.exits.Inc()
	p.Sleep(exitCost)
}

func (v *vdisk) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	v.exit(p)
	return v.dev.Read(p, lba, dst)
}

func (v *vdisk) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	v.exit(p)
	return v.dev.Write(p, lba, data, fua)
}
