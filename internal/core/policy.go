package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AckKind selects which durability domain must hold a commit before the
// guest sees the acknowledgement.
type AckKind int

const (
	// AckKindLocal is the paper's original contract: the hypervisor buffer
	// plus the emergency-dump guarantee are the durability domain. A commit
	// is acked the moment it is copied into hypervisor memory.
	AckKindLocal AckKind = iota
	// AckKindQuorum acks a commit only when the local buffer AND k standby
	// replicas hold it. Survives everything AckKindLocal survives, plus
	// faults the local dump cannot: a dump-zone media failure, a defective
	// PSU whose real hold-up undershoots its rating, whole-machine loss.
	AckKindQuorum
	// AckKindRemoteOnly makes the replicas the durability domain outright:
	// acks wait for k replicas, the emergency dump is disabled, and the
	// buffer bound is no longer tied to the PSU hold-up window.
	AckKindRemoteOnly
)

// AckPolicy is the durability policy a Logger enforces on the ack path.
type AckPolicy struct {
	Kind AckKind
	// K is the number of standby replicas that must hold a commit before it
	// is acknowledged. Ignored for AckKindLocal; defaults to 1 otherwise.
	K int
}

// AckLocal returns the default local-durability policy.
func AckLocal() AckPolicy { return AckPolicy{Kind: AckKindLocal} }

// AckQuorum returns a policy that acks once local memory plus k replicas
// hold the commit.
func AckQuorum(k int) AckPolicy { return AckPolicy{Kind: AckKindQuorum, K: k} }

// AckRemoteOnly returns a policy where k replicas replace the emergency
// dump as the durability domain.
func AckRemoteOnly(k int) AckPolicy { return AckPolicy{Kind: AckKindRemoteOnly, K: k} }

// ParseAckPolicy maps a CLI-style policy name ("local", "quorum",
// "remote-only") and the -quorum value k to a policy. A local policy waits
// for no standby, so a nonzero k there is a usage error, not a value to drop.
func ParseAckPolicy(kind string, k int) (AckPolicy, error) {
	switch kind {
	case "", "local":
		if k != 0 {
			return AckPolicy{}, fmt.Errorf("rapilog: -quorum %d needs a remote -ack-policy (quorum|remote-only): local acks wait for no standby", k)
		}
		return AckLocal(), nil
	case "quorum":
		return AckQuorum(k), nil
	case "remote-only", "remote":
		return AckRemoteOnly(k), nil
	default:
		return AckPolicy{}, fmt.Errorf("rapilog: unknown ack policy %q (local|quorum|remote-only)", kind)
	}
}

func (a AckPolicy) String() string {
	switch a.Kind {
	case AckKindLocal:
		return "local"
	case AckKindQuorum:
		return fmt.Sprintf("quorum(%d)", a.K)
	case AckKindRemoteOnly:
		return fmt.Sprintf("remote-only(%d)", a.K)
	default:
		return fmt.Sprintf("ackpolicy(%d)", int(a.Kind))
	}
}

// Remote reports whether the policy involves replicas at all.
func (a AckPolicy) Remote() bool { return a.Kind != AckKindLocal }

// Replicator is the Logger's hook into log shipping. The Logger calls Ship
// for every byte it intends to make durable — buffered inserts, absorbed
// rewrites, and degraded pass-through writes alike — and WaitQuorum on the
// ack path when the policy demands remote copies. internal/replica provides
// the real implementation; tests substitute fakes.
type Replicator interface {
	// Ship hands one write to the replication stream and returns its
	// sequence number. The data is copied before Ship returns.
	Ship(lba int64, data []byte) uint64
	// WaitQuorum blocks p until k replicas have acknowledged seq.
	WaitQuorum(p *sim.Proc, seq uint64, k int)
}

// ship forwards one write to the replicator, if any. Every path that makes
// bytes durable must pass through here — a write the replicas never saw is
// a write replica-based recovery would silently roll back. span is the
// causal parent (the buffer-entry span, or 0 when untracked); it rides the
// tracer's cause slot because the Replicator interface predates tracing and
// its fakes must keep compiling.
func (l *Logger) ship(lba int64, data []byte, span obs.SpanID) uint64 {
	if l.cfg.Replicator == nil {
		return 0
	}
	tr := l.tracer()
	tr.SetCause(span)
	seq := l.cfg.Replicator.Ship(lba, data)
	tr.ClearCause()
	return seq
}

// waitPolicy blocks the acking writer until the configured durability
// domain holds the write.
func (l *Logger) waitPolicy(p *sim.Proc, seq uint64) {
	if l.cfg.Replicator == nil || !l.cfg.Policy.Remote() || seq == 0 {
		return
	}
	start := p.Now()
	l.cfg.Replicator.WaitQuorum(p, seq, l.cfg.Policy.K)
	l.stats.QuorumWait.Observe(p.Now().Sub(start))
}

// Recover is boot-time recovery after the power loss that ended this
// logger's epoch, before the DBMS runs its own log recovery: it merges the
// durability domains into the log partition. The logger is the dying
// epoch's; the power cut stopped its processes, and what Recover asks of it
// is its devices, its policy and how its emergency dump went.
//
// replicasNeeded decides whether the standbys are replayed, through
// replayReplicas (nil is fine under AckLocal). When both sources replay,
// the standbys' records land first and the dump's intact entries second:
// the dump snapshotted the newest buffered version of everything it
// covers, so it must win on overlap. The dump is then invalidated, so a
// second boot does not replay it over a log that has moved on.
func (l *Logger) Recover(p *sim.Proc, replayReplicas func(*sim.Proc) error) (RecoveryReport, error) {
	d, derr := readDump(p, l.dump)
	rep := RecoveryReport{HadDump: d.had, Torn: d.torn, DumpRetries: l.dumpRetries, DumpFailures: l.dumpFailures}
	if replicasNeeded(l.cfg.Policy.Kind, d, derr != nil, l.dumpFailures) {
		if err := replayReplicas(p); err != nil {
			return rep, err
		}
	} else if derr != nil {
		return rep, derr
	}
	if derr != nil || !d.had {
		return rep, nil
	}
	for i, e := range d.entries { // idempotent: the drain would write the same sectors
		if err := l.backing.Write(p, e.lba, e.data, true); err != nil {
			return rep, fmt.Errorf("rapilog: replaying dump entry %d: %v", i, err)
		}
		rep.Entries++
		rep.Bytes += int64(len(e.data))
	}
	return rep, l.dump.Write(p, 0, make([]byte, disk.SectorSize), true)
}
