// Package power models the electrical side of the RapiLog argument: a
// machine chassis with a power supply whose hold-up window gives software a
// short, guaranteed ride-through between the power-fail interrupt and the
// loss of DC power.
//
// The paper's safety story is a race: on AC loss the PSU keeps rails up for
// the hold-up time (≥16 ms by ATX specification; hundreds of ms as measured
// on real supplies), an interrupt fires almost immediately, and the trusted
// layer must flush its bounded buffer to disk before the deadline. Machine
// reproduces exactly that race on virtual time: CutPower samples a hold-up
// duration, delivers the interrupt to registered handlers, lets them run —
// and then kills every domain and fails every device, mid-write if that is
// where the deadline lands.
package power

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PSUConfig describes a power supply's ride-through behaviour. Hold-up is
// sampled uniformly from [HoldupMin, HoldupMax] at each AC-loss event;
// HoldupMin is the figure a RapiLog deployment is allowed to rely on.
type PSUConfig struct {
	Name             string
	HoldupMin        time.Duration
	HoldupMax        time.Duration
	InterruptLatency time.Duration // AC loss → power-fail interrupt delivery
}

// PSU profiles used across the experiments (E5). The ATX specification
// guarantees 16 ms at full load; the paper's measurements found real
// supplies ride through far longer, which is what makes useful buffer
// sizes flushable.
var (
	// PSUATXSpec is the bare specification minimum.
	PSUATXSpec = PSUConfig{Name: "atx-spec", HoldupMin: 16 * time.Millisecond, HoldupMax: 17 * time.Millisecond, InterruptLatency: 50 * time.Microsecond}
	// PSUTypical is a mid-range supply at partial load.
	PSUTypical = PSUConfig{Name: "typical", HoldupMin: 40 * time.Millisecond, HoldupMax: 70 * time.Millisecond, InterruptLatency: 50 * time.Microsecond}
	// PSUMeasured reflects the long decay tails measured on real bench
	// supplies at light load.
	PSUMeasured = PSUConfig{Name: "measured", HoldupMin: 250 * time.Millisecond, HoldupMax: 380 * time.Millisecond, InterruptLatency: 50 * time.Microsecond}
	// PSUWithUPS models the conventional alternative the paper argues
	// RapiLog makes unnecessary for log buffering: an uninterruptible
	// supply holding the machine up for minutes. With this profile the
	// sizing rule admits buffers far larger than any workload needs — at
	// the cost of the battery hardware RapiLog exists to avoid.
	PSUWithUPS = PSUConfig{Name: "ups", HoldupMin: 2 * time.Minute, HoldupMax: 5 * time.Minute, InterruptLatency: 50 * time.Microsecond}
)

// Handler is a power-fail interrupt handler. It is spawned as a fresh
// process when the interrupt fires and races the hold-up deadline: when DC
// power dies, the process is killed wherever it happens to be.
type Handler func(p *sim.Proc)

// Machine is a simulated physical machine: CPU cores, attached block
// devices, software crash domains, and a PSU. All software domains created
// through NewDomain — and the hardware domain running device machinery —
// die together when the hold-up window closes.
type Machine struct {
	s        *sim.Sim
	name     string
	psu      PSUConfig
	cores    int
	cpu      *sim.Resource
	hwDom    *sim.Domain
	domains  []*sim.Domain
	devices  []disk.Device
	handlers []Handler
	powered  bool
	acFail   bool

	o *obs.Obs
}

// NewMachine creates a powered-on machine with the given CPU core count and
// PSU profile.
func NewMachine(s *sim.Sim, name string, cores int, psu PSUConfig) *Machine {
	if cores <= 0 {
		cores = 1
	}
	return &Machine{
		s:       s,
		name:    name,
		psu:     psu,
		cores:   cores,
		cpu:     s.NewResource(name+".cpu", int64(cores)),
		hwDom:   s.NewDomain(name + ".hw"),
		powered: true,
	}
}

// SetObs attaches the observability bundle: power transitions then appear
// as trace events and counters ("power.ac_losses" etc).
func (m *Machine) SetObs(o *obs.Obs) { m.o = o }

// emit records a power event on the attached tracer (no-op when unset).
func (m *Machine) emit(kind obs.Kind, arg1 int64) {
	m.o.Tracer().Emit(m.s.Now().Duration(), kind, 0, 0, arg1, 0)
}

// Sim returns the owning simulation.
func (m *Machine) Sim() *sim.Sim { return m.s }

// CPU returns the core pool. Callers model computation by acquiring a core
// and sleeping for the burst length. The pool is recreated on power
// restore; re-fetch it after a reboot.
func (m *Machine) CPU() *sim.Resource { return m.cpu }

// HardwareDomain returns the domain device machinery runs in. It dies on
// power loss and is revived by RestorePower.
func (m *Machine) HardwareDomain() *sim.Domain { return m.hwDom }

// NewDomain creates a software crash domain that dies when machine power
// does.
func (m *Machine) NewDomain(name string) *sim.Domain {
	d := m.s.NewDomain(name)
	m.domains = append(m.domains, d)
	return d
}

// AttachDevice registers a block device with the machine's power rails.
func (m *Machine) AttachDevice(d disk.Device) {
	m.devices = append(m.devices, d)
}

// AddPowerFailHandler registers a power-fail interrupt handler; each
// handler runs as its own process when the interrupt fires, racing the
// hold-up deadline. Consolidated
// deployments (several RapiLog instances on one machine) register one per
// instance — and must each dump to their own spindle, or their shared
// bandwidth invalidates the individual sizing rules.
func (m *Machine) AddPowerFailHandler(h Handler) { m.handlers = append(m.handlers, h) }

// InterruptBudget returns the guaranteed time a handler has between being
// spawned and losing power: the minimum hold-up minus delivery latency.
// RapiLog's buffer-sizing rule builds on this figure.
func (m *Machine) InterruptBudget() time.Duration {
	return m.psu.HoldupMin - m.psu.InterruptLatency
}

// CutPower simulates mains loss. It samples a hold-up duration, schedules
// the power-fail interrupt after the delivery latency, and schedules the
// death of every device and domain at the hold-up deadline. It returns the
// sampled hold-up. Calling it while AC is already lost is a no-op.
//
// CutPower may be called from scheduler context or from any process,
// including one that is about to die with the machine.
func (m *Machine) CutPower() time.Duration {
	if m.acFail || !m.powered {
		return 0
	}
	m.acFail = true
	span := m.psu.HoldupMax - m.psu.HoldupMin
	holdup := m.psu.HoldupMin
	if span > 0 {
		holdup += time.Duration(m.s.Rand().Int63n(int64(span) + 1))
	}
	m.o.Registry().Counter("power.ac_losses").Inc()
	m.emit(obs.EvPowerFail, int64(holdup))

	if len(m.handlers) > 0 {
		m.s.After(m.psu.InterruptLatency, func() {
			if !m.acFail || !m.powered {
				return
			}
			for i, h := range m.handlers {
				m.s.Spawn(m.hwDom, fmt.Sprintf("%s.pwrfail%d", m.name, i), h)
			}
		})
	}
	m.s.After(holdup, m.dcLoss)
	return holdup
}

// dcLoss is the hold-up deadline: rails collapse, devices lose volatile
// state, every process on the machine dies mid-instruction.
func (m *Machine) dcLoss() {
	if !m.acFail || !m.powered {
		return
	}
	m.powered = false
	m.o.Registry().Counter("power.dc_losses").Inc()
	m.emit(obs.EvPowerDC, 0)
	for _, d := range m.devices {
		if pa, ok := d.(disk.PowerAware); ok {
			pa.PowerFail()
		}
	}
	for _, dom := range m.domains {
		dom.Kill()
	}
	m.hwDom.Kill()
}

// RestorePower brings AC and DC back: devices power on with empty caches
// and the hardware domain is revived. Software domains stay dead — reviving
// them is the boot sequence's job (see the hv package).
func (m *Machine) RestorePower() {
	if m.powered {
		m.acFail = false
		return
	}
	m.acFail = false
	m.powered = true
	// Handlers are firmware-registered: the boot sequence re-installs
	// them. A stale handler from the previous epoch must never fire (it
	// could dump a dead buffer over the new instance's dump zone).
	m.handlers = nil
	m.hwDom.Revive()
	m.cpu = m.s.NewResource(m.name+".cpu", int64(m.cores))
	for _, d := range m.devices {
		if pa, ok := d.(disk.PowerAware); ok {
			pa.PowerOn(m.hwDom)
		}
	}
	m.o.Registry().Counter("power.restores").Inc()
	m.emit(obs.EvPowerRestore, 0)
}
