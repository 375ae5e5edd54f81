// Faulty wraps a Partition with a deterministic media-fault model: seeded
// transient write errors, per-LBA-range "grown bad sector" permanent
// errors, and latency storms. It is how the fault-injection campaigns turn
// "the drive hiccuped" into a first-class, reproducible event.
//
// Faults are decided by the wrapper's own RNG (seeded independently of the
// simulation's), so enabling injection does not perturb the random choices
// every other component makes — two runs of the same seed differ only in
// the faults themselves.

package disk

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FaultConfig parameterises a Faulty wrapper. A new wrapper injects
// nothing; campaigns open a fault window at runtime via the Set* methods.
type FaultConfig struct {
	// Enabled gates wrapping at the rig level: a zero FaultConfig means
	// "no fault layer at all", not "a fault layer that never fires".
	Enabled bool
	// Seed drives the fault decisions. Independent of the simulation seed.
	Seed int64
	// Reg registers the inject_* counters; nil leaves them unregistered.
	Reg *obs.Registry
}

// spikeDelay is what every request pays while a latency storm is on.
const spikeDelay = 10 * time.Millisecond

// badRange is a grown defect: writes into it always fail; reads too when
// reads is set.
type badRange struct {
	lo, hi int64
	reads  bool
}

// Faulty is a Device that forwards to an inner device after consulting the
// fault model. Injected errors fail the request before it reaches the inner
// device — a failed write leaves no bytes on media, as on real hardware
// when the controller rejects the transfer.
type Faulty struct {
	inner    *Partition
	rng      *rand.Rand
	bad      []badRange
	storm    bool
	writeErr float64 // per-write transient error probability

	injWrites *metrics.Counter
	injSpikes *metrics.Counter
	injBad    *metrics.Counter
}

// NewFaulty wraps inner with the fault model described by cfg. Its
// counters are named "<partition>.flt.inject_*".
func NewFaulty(inner *Partition, cfg FaultConfig) *Faulty {
	name := inner.Name() + ".flt"
	return &Faulty{
		inner:     inner,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		injWrites: cfg.Reg.Counter(name + ".inject_write_errors"),
		injSpikes: cfg.Reg.Counter(name + ".inject_latency_spikes"),
		injBad:    cfg.Reg.Counter(name + ".inject_bad_range_errors"),
	}
}

// SetWriteErrorProb sets the per-write transient error probability at
// runtime — the campaign's fault window open/close switch.
func (f *Faulty) SetWriteErrorProb(p float64) { f.writeErr = p }

// SetStorm turns the latency storm on or off: while on, every request pays
// the spike delay (congestion, firmware GC, a resetting expander — pick
// your favourite), though none fail.
func (f *Faulty) SetStorm(on bool) { f.storm = on }

// AddBadRange grows a permanent defect over [lba, lba+nsec): writes into it
// fail forever; reads too when failReads is set. Leaving reads intact
// models the common case where previously written sectors remain readable
// while the drive refuses to accept new data.
func (f *Faulty) AddBadRange(lba, nsec int64, failReads bool) {
	f.bad = append(f.bad, badRange{lo: lba, hi: lba + nsec, reads: failReads})
}

// inBadRange reports whether [lba, lba+nsec) intersects a grown defect
// that applies to the access direction.
func (f *Faulty) inBadRange(lba int64, nsec int, write bool) bool {
	hi := lba + int64(nsec)
	for _, b := range f.bad {
		if lba < b.hi && hi > b.lo && (write || b.reads) {
			return true
		}
	}
	return false
}

// maybeFault runs the fault model for one request: the storm's latency
// spike, then a possible injected error. A nil return means the request
// proceeds to the inner device.
func (f *Faulty) maybeFault(p *sim.Proc, lba int64, nsec int, write bool) error {
	if f.storm {
		f.injSpikes.Inc()
		p.Sleep(spikeDelay)
	}
	if f.inBadRange(lba, nsec, write) {
		f.injBad.Inc()
		return fmt.Errorf("%w: grown defect at lba %d+%d on %s", ErrIO, lba, nsec, f.inner.Name())
	}
	if write && f.writeErr > 0 && f.rng.Float64() < f.writeErr {
		f.injWrites.Inc()
		return fmt.Errorf("%w: write lba %d on %s", ErrIO, lba, f.inner.Name())
	}
	return nil
}

// Sectors implements Device.
func (f *Faulty) Sectors() int64 { return f.inner.Sectors() }

// Read implements Device.
func (f *Faulty) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	if err := f.maybeFault(p, lba, len(dst)/SectorSize, false); err != nil {
		return 0, err
	}
	return f.inner.Read(p, lba, dst)
}

// Write implements Device.
func (f *Faulty) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if err := f.maybeFault(p, lba, len(data)/SectorSize, true); err != nil {
		return err
	}
	return f.inner.Write(p, lba, data, fua)
}
