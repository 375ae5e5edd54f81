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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	ErrBadDump   = errors.New("rapilog: dump zone contents invalid")
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
	// drainBatch is the max entries coalesced per drain round.
	drainBatch = 64
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

// entry is one buffered write. Its lba plus len(data) is also the range
// index the Read path consults: pending entries, scanned oldest to newest,
// are exactly the sectors that differ from the backing device.
type entry struct {
	lba  int64
	data []byte
	span obs.SpanID // the hv_ack span; parents this entry's durable event
}

// overlap intersects e with the request of nsec sectors at lba: the bytes
// they share start at off in the request and at eoff in e.data and run n
// bytes, n ≤ 0 when the two are disjoint.
func (e *entry) overlap(lba int64, nsec int) (off, eoff, n int64) {
	s0 := max(lba, e.lba)
	s1 := min(lba+int64(nsec), e.lba+int64(len(e.data))/disk.SectorSize)
	return (s0 - lba) * disk.SectorSize, (s0 - e.lba) * disk.SectorSize, (s1 - s0) * disk.SectorSize
}

// Logger is the RapiLog device. It implements disk.Device so a guest can be
// given one in place of its raw log partition; reads are coherent with
// buffered writes.
//
// The simulation is single-threaded (the kernel runs one process at a
// time), so the entry and payload pools below need no locking.
type Logger struct {
	cfg     Config
	safe    int64 // the dump zone's SafeBufferSize
	s       *sim.Sim
	backing disk.Device // physical log partition
	dump    disk.Device // reserved emergency dump zone
	stats   *Stats

	buffered  int64            // bytes buffered; bounded by cfg.MaxBuffer
	spaceSig  *sim.Signal      // broadcast when buffered shrinks or the mode changes
	pending   []*entry         // FIFO, including the batch being drained
	absorb    map[int64]*entry // pending (not draining) entries by lba, for write absorption
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

	entryPool []*entry         // retired entry headers, reused by Write
	bufPool   map[int][][]byte // retired payload buffers by size class (exact length)
	scratch   []byte           // drain-run coalescing buffer, reused across rounds
}

// SafeBufferSize computes the paper's sizing rule for a log domain that
// dumps to zone: the bytes that can provably reach it within the machine's
// guaranteed interrupt budget,
//
//	(hold-up_min − interrupt latency − 2 × sharers × worst-case positioning) × seq bandwidth,
//
// with a 10% engineering margin, additionally capped by the zone's payload
// capacity. The positioning and bandwidth figures are the zone's drive's.
// The positioning term is doubled because the emergency write may have to
// wait out one in-flight disk operation before it can even start seeking,
// and charged once per sharer: sharers log domains on one machine, each
// dumping to its own spindle, race the same hold-up window. The spindles
// stream independently, so bandwidth is not divided, but the power-fail
// interrupt fans out to every instance on the same finite cores.
func SafeBufferSize(m *power.Machine, zone *disk.Partition, sharers int) int64 {
	drive := zone.Parent()
	budget := m.InterruptBudget() - 2*time.Duration(max(sharers, 1))*drive.WorstCaseAccess()
	if budget <= 0 {
		return 0
	}
	byBudget := int64(0.9 * budget.Seconds() * drive.SeqWriteBandwidth())
	return min(byBudget, zonePayloadCapacity(zone))
}

// zonePayloadCapacity is the dump zone's usable bytes after the header
// sector and per-entry framing (estimated at 10%).
func zonePayloadCapacity(zone disk.Device) int64 {
	raw := (zone.Sectors() - 1) * disk.SectorSize
	return raw * 9 / 10
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
	if !cfg.Unsafe && !remoteOnly {
		if cfg.MaxBuffer > safe {
			return nil, fmt.Errorf("rapilog: MaxBuffer %d exceeds safe bound %d", cfg.MaxBuffer, safe)
		}
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
		absorb:   make(map[int64]*entry),
		bufPool:  make(map[int][][]byte),
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

// getBuf returns a payload buffer of exactly n bytes, reusing a retired one
// when the size class has stock. Contents are undefined; callers overwrite.
func (l *Logger) getBuf(n int) []byte {
	if bufs := l.bufPool[n]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		l.bufPool[n] = bufs[:len(bufs)-1]
		return b
	}
	return make([]byte, n)
}

// putBuf retires a payload buffer into its size class.
func (l *Logger) putBuf(b []byte) {
	l.bufPool[len(b)] = append(l.bufPool[len(b)], b)
}

// getEntry returns a blank entry header, reusing a retired one if possible.
func (l *Logger) getEntry() *entry {
	if n := len(l.entryPool); n > 0 {
		e := l.entryPool[n-1]
		l.entryPool = l.entryPool[:n-1]
		return e
	}
	return &entry{}
}

// putEntry retires a drained entry: its payload buffer goes back to the
// size-classed pool and the header to the entry pool. Only the drainer may
// call this, and only for entries no longer reachable from pending, absorb,
// or an emergency snapshot.
func (l *Logger) putEntry(e *entry) {
	l.putBuf(e.data)
	*e = entry{}
	l.entryPool = append(l.entryPool, e)
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
func (l *Logger) BufferedBytes() int64 { return l.buffered }

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
	if int64(len(data)) > l.cfg.MaxBuffer {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), l.cfg.MaxBuffer)
	}
	start := p.Now()

	// Write absorption: a buffered-but-not-draining write to the same
	// block is superseded in place — the disk only ever needs the newest
	// version. This is what keeps repeated log-tail rewrites from eating
	// a disk rotation each in the drain. Not when a newer entry overlaps
	// the block: it would land over the rewrite with older bytes.
	if e, ok := l.absorb[lba]; ok && len(e.data) == len(data) && !l.shadowed(e, lba, nsec) {
		copy(e.data, data)
		l.stats.Absorbed.Inc()
		// The rewrite is a write of the force that issued it, not of the one
		// that buffered the entry: it gets its own span under that force.
		span := l.tracer().NewSpan()
		l.tracer().Emit(p.Now().Duration(), obs.EvHvAbsorb, span, cause, lba, int64(len(data)))
		// An absorbed rewrite mutates the buffered entry in place, so the
		// replicas must see the new bytes too — their copy of the old
		// version is now a stale shadow of what will reach the disk.
		seq := l.ship(lba, data, span)
		p.Sleep(ackCost(len(data)))
		l.waitPolicy(p, seq)
		l.stats.Writes.Inc()
		l.stats.AckLatency.Observe(p.Now().Sub(start))
		return nil
	}

	need := int64(len(data))
	if l.buffered+need > l.cfg.MaxBuffer {
		l.stats.Throttled.Inc()
		l.tracer().Emit(p.Now().Duration(), obs.EvHvThrottle, 0, 0, lba, need)
		for l.buffered+need > l.cfg.MaxBuffer {
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
	}
	e := l.getEntry()
	e.lba = lba
	e.data = l.getBuf(len(data))
	copy(e.data, data)
	e.span = l.tracer().NewSpan()
	// hv_ack is stamped at buffer-insertion time — before the ack sleep — so
	// it always precedes the durable event the drainer emits for this entry.
	l.tracer().Emit(p.Now().Duration(), obs.EvHvAck, e.span, cause, lba, int64(len(data)))
	l.pending = append(l.pending, e)
	l.absorb[lba] = e
	l.buffered += need
	l.stats.Occupancy.Add(need)
	seq := l.ship(lba, data, e.span)
	l.dirtySig.Broadcast()

	// The guest-visible cost: fixed overhead plus the memory copy — plus,
	// under a quorum policy, the replication round trip.
	p.Sleep(ackCost(len(data)))
	l.waitPolicy(p, seq)
	l.stats.Writes.Inc()
	l.stats.AckLatency.Observe(p.Now().Sub(start))
	return nil
}

// shadowed reports whether an entry buffered after e overlaps the nsec
// sectors at lba. e must be pending; a log tail's rewrite finds it last.
func (l *Logger) shadowed(e *entry, lba int64, nsec int) bool {
	for i := len(l.pending) - 1; l.pending[i] != e; i-- {
		if _, _, n := l.pending[i].overlap(lba, nsec); n > 0 {
			return true
		}
	}
	return false
}

// passthroughWrite is the degraded-mode write path: durability before
// acknowledgement, at the backing device's own speed. Overlapping buffered
// entries are patched in place first, so the newest bytes win everywhere
// the buffer is still consulted — the read overlay, the probe drain, and
// the emergency dump image.
func (l *Logger) passthroughWrite(p *sim.Proc, lba int64, data []byte) error {
	start := p.Now()
	// Pass-through writes must ship too: replica replay rewrites every lba
	// the replicas hold, so any write they never saw would be rolled back
	// to its previous contents at recovery. No quorum wait is needed — the
	// write below is synchronously durable on local media before the ack.
	l.ship(lba, data, 0)
	l.patchPending(lba, data)
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

// patchPending copies data over every overlapping buffered entry. Called
// before a degraded pass-through write lands, it keeps the invariant that
// buffered copies are never older than the media they shadow.
func (l *Logger) patchPending(lba int64, data []byte) {
	for _, e := range l.pending {
		if off, eoff, n := e.overlap(lba, len(data)/disk.SectorSize); n > 0 {
			copy(e.data[eoff:eoff+n], data[off:off+n])
		}
	}
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
// overlaid, so the guest always reads what it last wrote. Reads are rare
// (recovery, log scans at boot), so rather than maintaining a per-sector
// map on the hot Write path, the pending list itself serves as the range
// index: scanned oldest to newest, later overlaps win — the same ordering
// the drain writes to disk.
func (l *Logger) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	n, err := l.backing.Read(p, lba, dst)
	if err != nil {
		return 0, err
	}
	for _, e := range l.pending {
		if off, eoff, k := e.overlap(lba, n/disk.SectorSize); k > 0 {
			copy(dst[off:off+k], e.data[eoff:eoff+k])
		}
	}
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
			if len(l.pending) == 0 {
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

// drainRound drains one batch from the head of the FIFO. On success the
// batch is retired and space released; on failure everything stays pending
// (writes are idempotent — a later round simply re-lands the same sectors).
func (l *Logger) drainRound(p *sim.Proc) error {
	batch := len(l.pending)
	if batch > drainBatch {
		batch = drainBatch
	}
	// Entries entering the drain can no longer be absorbed into.
	batchBytes := int64(0)
	for _, e := range l.pending[:batch] {
		if l.absorb[e.lba] == e {
			delete(l.absorb, e.lba)
		}
		batchBytes += int64(len(e.data))
	}
	l.tracer().Emit(p.Now().Duration(), obs.EvDrainStart, l.tracer().NewSpan(), 0, int64(batch), batchBytes)
	drained := int64(0)
	i := 0
	for i < batch {
		// Coalesce the contiguous run starting at i into the persistent
		// scratch buffer (devices copy the data during the Write call, so
		// the buffer is free again on return). A run that outgrows it
		// grows it once, to the run or to twice its size.
		j, size, next := i, 0, l.pending[i].lba
		for j < batch && l.pending[j].lba == next {
			size += len(l.pending[j].data)
			next += int64(len(l.pending[j].data)) / disk.SectorSize
			j++
		}
		if cap(l.scratch) < size {
			l.scratch = make([]byte, 0, max(size, 2*cap(l.scratch)))
		}
		data := l.scratch[:0]
		for _, e := range l.pending[i:j] {
			data = append(data, e.data...)
		}
		if err := l.writeBackingRetry(p, l.pending[i].lba, data); err != nil {
			return err
		}
		if l.emergency {
			// The power-fail interrupt fired during the write and
			// snapshotted pending — the dump owns those buffers now;
			// retiring them here would recycle live memory.
			return errHalted
		}
		for _, e := range l.pending[i:j] {
			drained += int64(len(e.data))
			l.tracer().Emit(p.Now().Duration(), obs.EvDurable, 0, e.span, e.lba, int64(len(e.data)))
		}
		i = j
	}
	// Retire the batch: entries and their payload buffers return to the
	// pools for the next writes, space is released, stats move. The
	// survivors shift down so the backing array is reused rather than
	// abandoned one batch at a time.
	for _, e := range l.pending[:batch] {
		l.putEntry(e)
	}
	rest := copy(l.pending, l.pending[batch:])
	for k := rest; k < len(l.pending); k++ {
		l.pending[k] = nil
	}
	l.pending = l.pending[:rest]
	l.buffered -= drained
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
	l.tracer().Emit(p.Now().Duration(), obs.EvDegraded, 0, 0, int64(len(l.pending)), l.buffered)
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

// Dump-zone on-disk format. Everything is written as one sequential burst:
//
//	sector 0:  header  = magic(8) version(4) count(4) payloadLen(8) crc(4)
//	sectors 1+: entries packed back to back, each
//	           entMagic(4) lba(8) len(4) dataCRC(4) data...
//
// and the whole image padded to a sector boundary. Per-entry CRCs make a
// torn dump recover cleanly to a prefix.
const (
	dumpMagic   = "RAPILOG\x00"
	entMagic    = 0x52504c45 // "RPLE"
	dumpVersion = 1
	entHeadLen  = 20
)

// EmergencyFlush is the power-fail interrupt handler: snapshot everything
// still buffered (including any batch mid-drain — its backing write may be
// torn) and stream it to the dump zone in a single sequential FUA write.
// It races the hold-up deadline; SafeBufferSize is what makes it win.
func (l *Logger) EmergencyFlush(p *sim.Proc) {
	if l.emergency {
		return
	}
	l.emergency = true
	l.stats.EmergencyRuns.Inc()
	snapshot := l.pending // includes the draining head: replay is idempotent
	dumpSpan := l.tracer().NewSpan()
	l.tracer().Emit(p.Now().Duration(), obs.EvDumpStart, dumpSpan, 0, int64(len(snapshot)), l.stats.Occupancy.Value())
	if l.cfg.Policy.Kind == AckKindRemoteOnly {
		// The replicas are the durability domain: every acked byte is
		// already held by K standbys, and boot-time recovery replays from
		// them. Writing a dump here would just burn hold-up budget.
		l.tracer().Emit(p.Now().Duration(), obs.EvDumpDone, 0, dumpSpan, 0, 0)
		return
	}
	if len(snapshot) == 0 {
		l.tracer().Emit(p.Now().Duration(), obs.EvDumpDone, 0, dumpSpan, 0, 0)
		return
	}

	// Build the image in a single sized allocation. The header must not be
	// assembled with append(header, payload...): if header had spare
	// capacity the two would alias and the payload would overwrite it.
	ss := disk.SectorSize
	payloadLen := 0
	for _, e := range snapshot {
		payloadLen += entHeadLen + len(e.data)
	}
	imageLen := ss + payloadLen
	if pad := imageLen % ss; pad != 0 {
		imageLen += ss - pad
	}
	image := make([]byte, imageLen)
	header := image[:ss]
	copy(header, dumpMagic)
	binary.LittleEndian.PutUint32(header[8:], dumpVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(snapshot)))
	binary.LittleEndian.PutUint64(header[16:], uint64(payloadLen))
	binary.LittleEndian.PutUint32(header[24:], crc32.ChecksumIEEE(header[:24]))
	off := ss
	for _, e := range snapshot {
		h := image[off : off+entHeadLen]
		binary.LittleEndian.PutUint32(h[0:], entMagic)
		binary.LittleEndian.PutUint64(h[4:], uint64(e.lba))
		binary.LittleEndian.PutUint32(h[12:], uint32(len(e.data)))
		binary.LittleEndian.PutUint32(h[16:], crc32.ChecksumIEEE(e.data))
		off += entHeadLen
		off += copy(image[off:], e.data)
	}
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
	l.tracer().Emit(p.Now().Duration(), obs.EvDumpDone, 0, dumpSpan, int64(len(snapshot)), int64(payloadLen))
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

// Dump is a parsed dump-zone image: every entry that survived intact, plus
// the validity flags a recovery policy needs. ReadDump produces it without
// writing anything, so Logger.Recover can decide what to replay — the dump,
// the standbys, or both, and in which order — before the first sector
// changes.
type Dump struct {
	HadDump bool
	Torn    bool // the image ended mid-entry (hold-up deadline hit mid-dump)
	Entries []DumpEntry
}

// DumpEntry is one intact buffered write recovered from the dump zone.
type DumpEntry struct {
	Lba  int64
	Data []byte
}

// Complete reports whether the image fully accounts for what was buffered
// at the power-fail interrupt: a valid header with no tear. A machine that
// had nothing buffered writes no dump at all — that case is HadDump=false
// and the buffer was trivially covered, but only the dying logger's dump
// failure count can tell it apart from "the dump write itself failed";
// Logger.Recover consults both.
func (d Dump) Complete() bool { return d.HadDump && !d.Torn }

// ReadDump parses the dump zone without modifying anything. A zone with no
// dump header returns HadDump=false and no error; a corrupt header returns
// ErrBadDump; a torn payload returns the intact prefix with Torn set.
func ReadDump(p *sim.Proc, dumpZone disk.Device) (Dump, error) {
	var d Dump
	ss := disk.SectorSize
	header := make([]byte, ss)
	if _, err := dumpZone.Read(p, 0, header); err != nil {
		return d, err
	}
	if string(header[:8]) != dumpMagic {
		return d, nil // no dump: clean shutdown or nothing buffered
	}
	if crc32.ChecksumIEEE(header[:24]) != binary.LittleEndian.Uint32(header[24:28]) {
		return d, fmt.Errorf("%w: header CRC mismatch", ErrBadDump)
	}
	if v := binary.LittleEndian.Uint32(header[8:12]); v != dumpVersion {
		return d, fmt.Errorf("%w: version %d", ErrBadDump, v)
	}
	d.HadDump = true
	count := int(binary.LittleEndian.Uint32(header[12:16]))
	payloadLen := int64(binary.LittleEndian.Uint64(header[16:24]))
	payloadSectors := int((payloadLen + int64(ss) - 1) / int64(ss))
	if int64(payloadSectors) > dumpZone.Sectors()-1 {
		return d, fmt.Errorf("%w: payload length %d exceeds zone", ErrBadDump, payloadLen)
	}
	payload := make([]byte, payloadSectors*ss)
	if payloadSectors > 0 {
		n, err := dumpZone.Read(p, 1, payload)
		if err != nil {
			return d, err
		}
		payload = payload[:min64(payloadLen, int64(n))]
	}

	off := 0
	for i := 0; i < count; i++ {
		if off+entHeadLen > len(payload) {
			d.Torn = true
			break
		}
		h := payload[off : off+entHeadLen]
		if binary.LittleEndian.Uint32(h[0:4]) != entMagic {
			d.Torn = true
			break
		}
		lba := int64(binary.LittleEndian.Uint64(h[4:12]))
		dlen := int(binary.LittleEndian.Uint32(h[12:16]))
		wantCRC := binary.LittleEndian.Uint32(h[16:20])
		off += entHeadLen
		if off+dlen > len(payload) {
			d.Torn = true
			break
		}
		data := payload[off : off+dlen]
		off += dlen
		if crc32.ChecksumIEEE(data) != wantCRC {
			d.Torn = true
			break
		}
		d.Entries = append(d.Entries, DumpEntry{Lba: lba, Data: data})
	}
	return d, nil
}

// Replay writes every intact entry into the log partition (FUA), in dump
// order. Replaying is idempotent — entries rewrite the same sectors the
// drain would have — and, because the dump snapshotted the newest buffered
// version of each sector, its entries must land AFTER any other recovery
// source (a standby replica replay) that covers the same sectors.
func (d Dump) Replay(p *sim.Proc, logPartition disk.Device) (entries int, bytes int64, err error) {
	for i, e := range d.Entries {
		if err := logPartition.Write(p, e.Lba, e.Data, true); err != nil {
			return entries, bytes, fmt.Errorf("rapilog: replaying dump entry %d: %v", i, err)
		}
		entries++
		bytes += int64(len(e.Data))
	}
	return entries, bytes, nil
}

// InvalidateDump zeroes the dump-zone header so a second boot does not
// replay a stale image over a log that has moved on.
func InvalidateDump(p *sim.Proc, dumpZone disk.Device) error {
	return dumpZone.Write(p, 0, make([]byte, disk.SectorSize), true)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
