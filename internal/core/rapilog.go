// Package core implements RapiLog itself: a log device, interposed by the
// dependable hypervisor, that makes synchronous log writes asynchronous
// without giving up durability.
//
// The contract, exactly as in the paper:
//
//  1. A write to the log device is acknowledged as soon as the data is
//     copied into hypervisor memory — microseconds, not a disk rotation.
//  2. Barriers (flushes) on the log device are no-ops: acknowledged data is
//     already "as good as durable".
//  3. A background drain streams buffered writes to the physical log
//     partition, in order, with the volatile disk cache bypassed.
//  4. If the guest OS or the DBMS crashes, the hypervisor — which is
//     formally verified and therefore does not crash with it — keeps
//     draining. Nothing acknowledged is lost.
//  5. If mains power fails, the power-fail interrupt triggers an emergency
//     dump: everything still buffered is written in one sequential burst to
//     a reserved dump zone, inside the PSU's hold-up window. On the next
//     boot, Logger.Recover replays the dump into the log partition before
//     the DBMS runs its own recovery.
//
// The safety argument is quantitative: the buffer is bounded by
// SafeBufferSize — what can provably be dumped within the guaranteed
// hold-up budget — and writers are throttled when the bound is reached.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Errors returned by the RapiLog device.
var (
	ErrTooLarge  = errors.New("rapilog: write exceeds the buffer bound")
	ErrZoneSmall = errors.New("rapilog: dump zone smaller than the buffer bound")
	// ErrNoSafeBuffer: the hold-up budget cannot cover any buffer at all.
	ErrNoSafeBuffer = errors.New("rapilog: no safe buffer possible")
)

// Calibration constants of the buffered-write path and its drain: no
// experiment, campaign or test varies them, so they are not Config fields.
const (
	// deviceName names the log device, its instruments ("rapilog.writes")
	// and its processes; a sharded machine tells its loggers apart by
	// registry prefix, not by name.
	deviceName = "rapilog"
	// copyBandwidth models the hypervisor's buffer copy, bytes/s (5 GB/s).
	copyBandwidth = 5e9
	// ackOverhead is the fixed cost of the buffered-write path (request
	// validation, bookkeeping).
	ackOverhead = 2 * time.Microsecond
	// drainRetryLimit bounds how many times one backing write is attempted
	// before the Logger gives up on the drain and degrades.
	drainRetryLimit = 6
	// drainRetryBase starts the exponential backoff between attempts (base,
	// base·2, base·4, … capped at drainRetryCap).
	drainRetryBase = 2 * time.Millisecond
	drainRetryCap  = 256 * time.Millisecond
	// drainProbeEvery is how often a degraded Logger re-tries its stranded
	// batch, hoping the fault cleared.
	drainProbeEvery = time.Second
)

// The buffer's rules count in sectors of their own; they are the devices'.
var _ = [1]struct{}{}[sectorSize-disk.SectorSize]

// ackCost is the guest-visible cost of buffering n bytes: the fixed overhead
// plus the memory copy.
func ackCost(n int) time.Duration {
	return ackOverhead + time.Duration(float64(n)/copyBandwidth*float64(time.Second))
}

// errHalted distinguishes "the machine is dying" from media faults inside
// the drain machinery: it is never retried and never degrades the device —
// the emergency dump owns whatever remains.
var errHalted = errors.New("rapilog: halted by power failure")

// Config parameterises a Logger.
type Config struct {
	// MaxBuffer bounds buffered-but-not-yet-on-disk bytes. Zero selects
	// the safe bound NewLogger is given (the dump zone's SafeBufferSize).
	MaxBuffer int64
	// Unsafe skips the MaxBuffer ≤ SafeBufferSize check. Used by ablation
	// A3 to demonstrate exactly why the bound matters.
	Unsafe bool
	// Obs, when set, registers the Logger's instruments centrally and
	// traces the buffer lifecycle (hv_ack through durable/dump_done) —
	// the events the durability-exposure audit replays.
	Obs *obs.Obs
	// Policy selects the durability domain that must hold a commit before
	// it is acknowledged; zero value is AckLocal, the paper's contract.
	Policy AckPolicy
	// Replicator, when set, receives every write the Logger makes durable.
	// Required for any non-local Policy.
	Replicator Replicator
}

func (c *Config) applyDefaults() {
	if c.Policy.Remote() && c.Policy.K == 0 {
		c.Policy.K = 1
	}
}

// Stats exposes the Logger's own counters (distinct from the backing
// device's disk.Stats).
type Stats struct {
	Writes        *metrics.Counter // buffered writes acknowledged
	Absorbed      *metrics.Counter // writes absorbed into a pending entry
	Throttled     *metrics.Counter // writes that had to wait for space
	DrainRounds   *metrics.Counter
	DrainedBytes  *metrics.Counter
	Occupancy     *metrics.Gauge     // buffered bytes (peak = high-water)
	AckLatency    *metrics.Histogram // guest-visible write latency
	QuorumWait    *metrics.Histogram // ack-path stall inside WaitQuorum
	EmergencyRuns *metrics.Counter
	DumpedBytes   *metrics.Counter

	// Media-fault path.
	BackingRetries *metrics.Counter   // backing writes retried after a transient error
	Degradations   *metrics.Counter   // times the drain gave up and went pass-through
	Restores       *metrics.Counter   // times a degraded logger drained clean and recovered
	PassThrough    *metrics.Counter   // synchronous writes served while degraded
	PassLatency    *metrics.Histogram // guest-visible latency of those writes
	Degraded       *metrics.Gauge     // 1 while in pass-through
	DumpRetries    *metrics.Counter   // emergency-dump writes retried inside the hold-up window
	DumpFailures   *metrics.Counter   // emergency dumps that never made it to the zone
}

func newStats(reg *obs.Registry, name string) *Stats {
	return &Stats{
		Writes:        reg.Counter(name + ".writes"),
		Absorbed:      reg.Counter(name + ".absorbed"),
		Throttled:     reg.Counter(name + ".throttled"),
		DrainRounds:   reg.Counter(name + ".drain_rounds"),
		DrainedBytes:  reg.Counter(name + ".drained_bytes"),
		Occupancy:     reg.Gauge(name + ".occupancy"),
		AckLatency:    reg.Histogram(name + ".ack_latency"),
		QuorumWait:    reg.Histogram(name + ".quorum_wait"),
		EmergencyRuns: reg.Counter(name + ".emergency_runs"),
		DumpedBytes:   reg.Counter(name + ".dumped_bytes"),

		BackingRetries: reg.Counter(name + ".backing_retries"),
		Degradations:   reg.Counter(name + ".degradations"),
		Restores:       reg.Counter(name + ".restores"),
		PassThrough:    reg.Counter(name + ".pass_through_writes"),
		PassLatency:    reg.Histogram(name + ".pass_through_latency"),
		Degraded:       reg.Gauge(name + ".degraded"),
		DumpRetries:    reg.Counter(name + ".dump_retries"),
		DumpFailures:   reg.Counter(name + ".dump_failures"),
	}
}

// Logger is the RapiLog device. It implements disk.Device so a guest can be
// given one in place of its raw log partition; reads are coherent with
// buffered writes. It drives the buffer's rules (buffer.go) with processes,
// device I/O, costs, trace and counters. The simulation is single-threaded
// (the kernel runs one process at a time), so nothing here needs locking.
type Logger struct {
	cfg     Config
	safe    int64 // the dump zone's SafeBufferSize
	s       *sim.Sim
	backing disk.Device // physical log partition
	dump    disk.Device // reserved emergency dump zone
	stats   *Stats

	buf       buffer
	spaceSig  *sim.Signal // broadcast when the buffer shrinks or the mode changes
	dirtySig  *sim.Signal
	degraded  bool       // drain retries ran out: writes pass through (FUA) until the stranded entries land
	emergency bool       // the power-fail interrupt fired: no more acks, the dump owns the buffer
	never     *sim.Event // parked on by writers after emergency starts
	// io (one unit) serialises logger-initiated backing writes: the degraded
	// pass-through path and the probe drain must not interleave, or a stale
	// coalesced batch could land after (and over) a newer synchronous write.
	io *sim.Resource

	// This logger's own emergency-dump outcome. Stats' DumpRetries and
	// DumpFailures count the same events, but the registry hands every
	// rebuilt logger the same counters: they are the machine's lifetime
	// totals, and recovery must judge one power epoch.
	dumpRetries, dumpFailures int
}

// SafeBufferSize is the paper's sizing rule for a log domain that dumps to
// zone (a disk.NewDumpZone): the most bytes n whose dump image fits the
// zone and, from the worst state its drive can be in, is durable in time:
//
//	WorstCaseDump(zone, n) + (sharers − 1) × WorstCaseWrite(0) < hold-up_min − interrupt latency.
//
// sharers log domains on one machine race the same hold-up window, each to
// its own spindle; each other one costs a dump's wait for the arm.
func SafeBufferSize(m *power.Machine, zone *disk.Partition, sharers int) int64 {
	budget := m.InterruptBudget() - time.Duration(max(sharers, 1)-1)*zone.Parent().WorstCaseWrite(0)
	return largest(zonePayloadCapacity(zone), func(n int64) bool { return WorstCaseDump(zone, n) < budget })
}

// WorstCaseDump is the longest the emergency dump of n buffered bytes can
// take to be durable on zone: its drive's answer for the dump image.
func WorstCaseDump(zone *disk.Partition, n int64) time.Duration {
	return zone.Parent().WorstCaseWrite(imageBytes(n))
}

// zonePayloadCapacity is the most buffered bytes whose dump image fits the
// zone.
func zonePayloadCapacity(zone disk.Device) int64 {
	size := zone.Sectors() * disk.SectorSize
	return largest(size, func(n int64) bool { return imageBytes(n) <= size })
}

// largest is the greatest n in [0, hi] with ok(n), or 0 if there is none;
// ok must hold on a prefix of the range.
func largest(hi int64, ok func(int64) bool) int64 {
	return max(int64(sort.Search(int(hi)+1, func(i int) bool { return !ok(int64(i)) }))-1, 0)
}

// NewLogger creates a RapiLog device in front of backing, with emergency
// dumps going to dumpZone, and starts its drain process in hvDom — the
// domain that survives guest crashes. The machine's power-fail interrupt is
// wired to the emergency dump. safe is the zone's SafeBufferSize: the
// default MaxBuffer, and its limit unless cfg.Unsafe or acks are
// remote-only.
func NewLogger(m *power.Machine, hvDom *sim.Domain, backing, dumpZone disk.Device, safe int64, cfg Config) (*Logger, error) {
	cfg.applyDefaults()
	if cfg.Policy.Remote() {
		if cfg.Replicator == nil {
			return nil, fmt.Errorf("rapilog: ack policy %v requires a replicator", cfg.Policy)
		}
		// A quorum the replica set can never form would park every writer
		// forever in WaitQuorum; reject it here where direct API users hit
		// it, not just in rig config validation.
		if rc, ok := cfg.Replicator.(interface{ ReplicaCount() int }); ok && cfg.Policy.K > rc.ReplicaCount() {
			return nil, fmt.Errorf("rapilog: ack policy %v needs %d replicas, replicator has %d", cfg.Policy, cfg.Policy.K, rc.ReplicaCount())
		}
	}
	remoteOnly := cfg.Policy.Kind == AckKindRemoteOnly
	if cfg.MaxBuffer == 0 {
		cfg.MaxBuffer = safe
		if remoteOnly && cfg.MaxBuffer <= 0 {
			// The replicas are the durability domain: the buffer no longer
			// needs to fit the hold-up window, so a machine with no safe
			// local bound at all still gets a working (generous) buffer.
			cfg.MaxBuffer = 8 << 20
		}
	}
	if cfg.MaxBuffer <= 0 {
		return nil, fmt.Errorf("%w (hold-up budget %v)", ErrNoSafeBuffer, m.InterruptBudget())
	}
	// With AckRemoteOnly the dump zone is out of the durability argument
	// entirely — the SafeBufferSize bound and the zone-capacity check are
	// local-dump constraints and do not apply.
	if !cfg.Unsafe && !remoteOnly && cfg.MaxBuffer > safe {
		return nil, fmt.Errorf("rapilog: MaxBuffer %d exceeds safe bound %d", cfg.MaxBuffer, safe)
	}
	if !remoteOnly && cfg.MaxBuffer > zonePayloadCapacity(dumpZone) {
		return nil, fmt.Errorf("%w: bound %d, zone payload %d", ErrZoneSmall, cfg.MaxBuffer, zonePayloadCapacity(dumpZone))
	}
	s := m.Sim()
	l := &Logger{
		cfg:      cfg,
		safe:     safe,
		s:        s,
		backing:  backing,
		dump:     dumpZone,
		stats:    newStats(cfg.Obs.Registry(), deviceName),
		buf:      newBuffer(cfg.MaxBuffer),
		dirtySig: s.NewSignal(deviceName + ".dirty"),
		spaceSig: s.NewSignal(deviceName + ".space"),
		io:       s.NewResource(deviceName+".io", 1),
		never:    s.NewEvent(deviceName + ".halted"),
	}
	// The registry hands back the same instruments across logger rebuilds
	// (a new power epoch reuses the names); the point-in-time gauges must
	// restart with this logger's actual — empty — buffer.
	l.stats.Occupancy.Set(0)
	l.stats.Degraded.Set(0)
	l.spawnDrainer(hvDom)
	m.AddPowerFailHandler(func(p *sim.Proc) { l.EmergencyFlush(p) })
	return l, nil
}

// Stats returns RapiLog's own counters.
func (l *Logger) RapiStats() *Stats { return l.stats }

// tracer returns the Logger's tracer (nil — a no-op — when unconfigured).
func (l *Logger) tracer() *obs.Tracer { return l.cfg.Obs.Tracer() }

// MaxBuffer returns the configured buffer bound in bytes.
func (l *Logger) MaxBuffer() int64 { return l.cfg.MaxBuffer }

// SafeBound returns the provable exposure limit: the lesser of MaxBuffer and
// the dump zone's SafeBufferSize (they differ only when Unsafe or
// remote-only acks let MaxBuffer exceed it).
func (l *Logger) SafeBound() int64 { return min(l.cfg.MaxBuffer, l.safe) }

// BufferedBytes returns the bytes currently buffered.
func (l *Logger) BufferedBytes() int64 { return l.buf.size() }

// IsDegraded reports whether the Logger is in synchronous pass-through.
func (l *Logger) IsDegraded() bool { return l.degraded }

// Sectors implements disk.Device.
func (l *Logger) Sectors() int64 { return l.backing.Sectors() }

// Write implements disk.Device: copy into the buffer, acknowledge. Blocks
// only when the buffer bound is reached (throttling) — and, after a
// power-fail interrupt, forever: the device has stopped acknowledging, so
// nothing the guest does in its last milliseconds can be half-promised.
// While degraded, writes instead pass through to the backing device
// synchronously — slow, but never acknowledged before they are durable.
func (l *Logger) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	// The caller one layer up (the WAL's physical force) may have parked a
	// span in the tracer's cause slot; adopt it as this write's causal
	// parent so a commit's trace links tx → force → hv_ack/hv_absorb → ship.
	cause := l.tracer().TakeCause()
	if l.emergency {
		l.never.Wait(p) // parks until the machine dies
	}
	nsec := len(data) / disk.SectorSize
	if len(data)%disk.SectorSize != 0 {
		return disk.ErrMisaligned
	}
	if lba < 0 || lba+int64(nsec) > l.Sectors() {
		return fmt.Errorf("%w: lba=%d nsec=%d cap=%d", disk.ErrOutOfRange, lba, nsec, l.Sectors())
	}
	if l.degraded {
		return l.passthroughWrite(p, lba, data)
	}
	if l.buf.tooLarge(len(data)) {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), l.cfg.MaxBuffer)
	}
	start, need := p.Now(), int64(len(data))
	var span obs.SpanID
	absorbed := l.buf.absorbed(lba, data)
	if absorbed {
		// The rewrite is a write of the force that issued it, not of the one
		// that buffered the entry: it gets its own span under that force.
		l.stats.Absorbed.Inc()
		span = l.tracer().NewSpan()
		l.tracer().Emit(p.Now().Duration(), obs.EvHvAbsorb, span, cause, lba, need)
	} else {
		if !l.buf.fits(len(data)) {
			l.stats.Throttled.Inc()
			l.tracer().Emit(p.Now().Duration(), obs.EvHvThrottle, 0, 0, lba, need)
		}
		for !l.buf.fits(len(data)) {
			l.spaceSig.Wait(p)
			if l.emergency {
				// The power-fail interrupt arrived while we were
				// throttled: the device has stopped acknowledging.
				l.never.Wait(p)
			}
			if l.degraded {
				// The drain gave up while we were parked; no space will
				// free at buffered speed. Take the synchronous path.
				return l.passthroughWrite(p, lba, data)
			}
		}
		// hv_ack is stamped at buffer-insertion time — before the ack sleep
		// — so it always precedes the durable event of this entry.
		span = l.tracer().NewSpan()
		l.tracer().Emit(p.Now().Duration(), obs.EvHvAck, span, cause, lba, need)
		l.buf.insert(lba, data, uint64(span))
		l.stats.Occupancy.Add(need)
	}
	// An absorbed rewrite changes a buffered entry in place, so the replicas
	// must see the new bytes too: their copy of the old version is now a
	// stale shadow of what will reach the disk.
	seq := l.ship(lba, data, span)
	if !absorbed {
		l.dirtySig.Broadcast()
	}
	// The guest-visible cost: fixed overhead plus the memory copy — plus,
	// under a quorum policy, the replication round trip.
	p.Sleep(ackCost(len(data)))
	l.waitPolicy(p, seq)
	l.stats.Writes.Inc()
	l.stats.AckLatency.Observe(p.Now().Sub(start))
	return nil
}

// passthroughWrite is the degraded-mode write path: durability before
// acknowledgement, at the backing device's own speed. Overlapping buffered
// entries are patched first (buffer.patch).
func (l *Logger) passthroughWrite(p *sim.Proc, lba int64, data []byte) error {
	start := p.Now()
	// Pass-through writes must ship too: replica replay rewrites every lba
	// the replicas hold, so any write they never saw would be rolled back
	// to its previous contents at recovery. No quorum wait is needed — the
	// write below is synchronously durable on local media before the ack.
	l.ship(lba, data, 0)
	l.buf.patch(lba, data)
	err := l.writeBackingRetry(p, lba, data)
	if errors.Is(err, errHalted) {
		l.never.Wait(p)
	}
	if err != nil {
		return fmt.Errorf("rapilog: degraded pass-through write at lba %d: %w", lba, err)
	}
	l.stats.PassThrough.Inc()
	l.stats.PassLatency.Observe(p.Now().Sub(start))
	return nil
}

// writeBackingRetry writes one FUA request to the backing device under the
// logger's I/O lock, riding out transient media errors with bounded
// exponential backoff on virtual time. It returns nil on success, errHalted
// when the machine is dying (power loss or the emergency already declared),
// or the final classified error once the retry budget is spent. The lock is
// released as the caller unwinds too: a guest killed inside its pass-through
// write leaves an unacknowledged write that may still have landed, never a
// held lock in front of the drainer.
func (l *Logger) writeBackingRetry(p *sim.Proc, lba int64, data []byte) error {
	l.io.Acquire(p, 1)
	defer l.io.Release(1)
	delay := drainRetryBase
	for attempt := 1; ; attempt++ {
		err := l.backing.Write(p, lba, data, true)
		if err == nil {
			return nil
		}
		if l.emergency || errors.Is(err, disk.ErrNoPower) {
			return errHalted
		}
		if attempt >= drainRetryLimit || !disk.IsTransient(err) {
			return err
		}
		l.stats.BackingRetries.Inc()
		l.tracer().Emit(p.Now().Duration(), obs.EvDrainError, 0, 0, lba, int64(attempt))
		p.Sleep(delay)
		if l.emergency {
			return errHalted
		}
		if delay *= 2; delay > drainRetryCap {
			delay = drainRetryCap
		}
	}
}

// Read implements disk.Device: backing contents with buffered sectors
// overlaid, so the guest always reads what it last wrote.
func (l *Logger) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	n, err := l.backing.Read(p, lba, dst)
	if err != nil {
		return 0, err
	}
	l.buf.overlay(lba, dst[:n])
	return n, nil
}

// spawnDrainer starts the asynchronous writeback in the dependable domain.
// Entries are drained strictly in arrival order; contiguous runs coalesce
// into streaming writes. FUA bypasses the physical disk's volatile cache —
// RapiLog's durability promise must not silently rest on another volatile
// buffer.
//
// A failed backing write is retried with bounded exponential backoff
// (writeBackingRetry). Power loss ends the daemon — the emergency dump
// owns the buffer. A media fault that outlives the retry budget degrades
// the device instead: the daemon stays armed, probing the stranded batch
// at a gentle cadence, and restores buffered service the moment the
// backlog finally lands.
func (l *Logger) spawnDrainer(hvDom *sim.Domain) {
	l.s.Spawn(hvDom, deviceName+".drain", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			if l.emergency {
				return // the emergency dump owns the buffer now
			}
			if l.buf.count() == 0 {
				if l.degraded {
					l.restore(p)
				}
				l.dirtySig.Wait(p)
				continue
			}
			err := l.drainRound(p)
			switch {
			case err == nil:
			case errors.Is(err, errHalted):
				return
			default:
				// Retry budget spent (or a permanent media error). Degrade
				// rather than strand acknowledged bytes silently, then keep
				// probing: a cleared fault lets the backlog drain and the
				// device return to normal service.
				if !l.degraded {
					l.degrade(p)
				}
				l.dirtySig.WaitTimeout(p, drainProbeEvery)
			}
		}
	})
}

// drainRound drains one batch from the head of the FIFO, run by run. On
// success the batch is retired and space released; on failure everything
// stays pending (writes are idempotent — a later round simply re-lands the
// same sectors).
func (l *Logger) drainRound(p *sim.Proc) error {
	n, bytes := l.buf.startDrain()
	l.tracer().Emit(p.Now().Duration(), obs.EvDrainStart, l.tracer().NewSpan(), 0, int64(n), bytes)
	for {
		lba, data, ok := l.buf.nextRun()
		if !ok {
			break
		}
		if err := l.writeBackingRetry(p, lba, data); err != nil {
			return err
		}
		if l.emergency {
			// The power-fail interrupt fired during the write and dumped
			// the buffer; retiring the batch here would recycle its memory.
			return errHalted
		}
		l.buf.runLanded(func(lba int64, n int, span uint64) {
			l.tracer().Emit(p.Now().Duration(), obs.EvDurable, 0, obs.SpanID(span), lba, int64(n))
		})
	}
	drained := l.buf.retire()
	l.stats.Occupancy.Add(-drained)
	l.stats.DrainRounds.Inc()
	l.stats.DrainedBytes.Add(drained)
	l.spaceSig.Broadcast()
	return nil
}

// degrade switches the device to synchronous pass-through after the drain
// retry budget is exhausted. Acknowledged entries stay buffered — visible
// to reads, re-tried by the probe, covered by the emergency dump — so no
// promise is abandoned; only future writes get slower.
func (l *Logger) degrade(p *sim.Proc) {
	l.degraded = true
	l.stats.Degradations.Inc()
	l.stats.Degraded.Set(1)
	l.tracer().Emit(p.Now().Duration(), obs.EvDegraded, 0, 0, int64(l.buf.count()), l.buf.size())
	// Throttled writers must not wait for space that will never free at
	// buffered speed; wake them into the pass-through path.
	l.spaceSig.Broadcast()
}

// restore returns a degraded device to buffered service once the stranded
// backlog has fully drained.
func (l *Logger) restore(p *sim.Proc) {
	l.degraded = false
	l.stats.Restores.Inc()
	l.stats.Degraded.Set(0)
	l.tracer().Emit(p.Now().Duration(), obs.EvRestored, 0, 0, 0, 0)
	l.spaceSig.Broadcast()
}

// EmergencyFlush is the power-fail interrupt handler: stream everything
// still buffered (including any batch mid-drain) to the dump zone in a
// single sequential FUA write. It races the hold-up deadline;
// SafeBufferSize is what makes it win.
func (l *Logger) EmergencyFlush(p *sim.Proc) {
	if l.emergency {
		return
	}
	l.emergency = true
	l.stats.EmergencyRuns.Inc()
	count := int64(l.buf.count())
	dumpSpan := l.tracer().NewSpan()
	l.tracer().Emit(p.Now().Duration(), obs.EvDumpStart, dumpSpan, 0, count, l.stats.Occupancy.Value())
	// Under AckRemoteOnly the replicas are the durability domain: every
	// acked byte is already held by K standbys, and boot-time recovery
	// replays from them. Writing a dump would just burn hold-up budget.
	if l.cfg.Policy.Kind == AckKindRemoteOnly || count == 0 {
		l.tracer().Emit(p.Now().Duration(), obs.EvDumpDone, 0, dumpSpan, 0, 0)
		return
	}
	image, payloadLen := l.buf.dumpImage()
	// Retry transient dump-zone errors within the remaining hold-up budget:
	// the retry delay is tiny against the milliseconds the budget holds,
	// and the race is physical anyway — DC loss kills this process
	// mid-write if the deadline passes. Permanent errors and power death
	// are surrendered immediately and counted, so recovery reports can
	// tell "dump lost the race" (torn image) from "dump write failed".
	const maxDumpAttempts = 64
	const dumpRetryDelay = 100 * time.Microsecond
	var err error
	for attempt := 1; ; attempt++ {
		if err = l.dump.Write(p, 0, image, true); err == nil {
			break
		}
		if !disk.IsTransient(err) || attempt >= maxDumpAttempts {
			l.dumpFailures++
			l.stats.DumpFailures.Inc()
			return
		}
		l.dumpRetries++
		l.stats.DumpRetries.Inc()
		p.Sleep(dumpRetryDelay)
	}
	l.stats.DumpedBytes.Add(int64(payloadLen))
	l.tracer().Emit(p.Now().Duration(), obs.EvDumpDone, 0, dumpSpan, count, int64(payloadLen))
}

// RecoveryReport summarises what Logger.Recover replayed. DumpRetries and
// DumpFailures are the dying epoch's emergency-dump writes retried inside
// the hold-up window and dumps that never reached the zone (a logger lives
// for one power epoch): HadDump=false with DumpFailures>0 means the dump
// write itself failed, distinct from Torn — the dump losing the hold-up
// race — and from nothing having been buffered.
type RecoveryReport struct {
	Entries      int
	Bytes        int64
	Torn         bool // the dump ended mid-entry (deadline hit mid-dump)
	HadDump      bool
	DumpRetries  int
	DumpFailures int
}

// readDump parses the dump zone without modifying anything. A zone with no
// dump header has no dump and no error; a corrupt header is ErrBadDump; a
// torn payload gives the intact prefix.
func readDump(p *sim.Proc, zone disk.Device) (parsedDump, error) {
	var d parsedDump
	header := make([]byte, sectorSize)
	if _, err := zone.Read(p, 0, header); err != nil {
		return d, err
	}
	count, payloadLen, ok, err := parseDumpHeader(header)
	if !ok {
		return d, err
	}
	d.had = true
	payloadSectors := (payloadLen + sectorSize - 1) / sectorSize
	if payloadSectors > zone.Sectors()-1 {
		return d, fmt.Errorf("%w: payload length %d exceeds zone", ErrBadDump, payloadLen)
	}
	payload := make([]byte, payloadSectors*sectorSize)
	if payloadSectors > 0 {
		n, err := zone.Read(p, 1, payload)
		if err != nil {
			return d, err
		}
		payload = payload[:min(payloadLen, int64(n))]
	}
	d.entries, d.torn = parseDumpEntries(payload, count)
	return d, nil
}
