// Package replica implements the replicated durability domain: log shipping
// from the RapiLog buffer to N standby replicas over the simulated network
// fabric, with a sequence-numbered stream protocol, cumulative acks, and
// per-replica catch-up after partitions heal.
//
// The protocol is deliberately minimal — the subsystem exists to extend the
// paper's safety argument, not to reinvent consensus:
//
//   - The Shipper assigns every shipped write a sequence number within the
//     current power epoch, coalesces records shipped in the same instant
//     into wire frames (one fabric send per frame per standby; one
//     cumulative ack back per frame), and sends each frame to every
//     standby. Records are
//     retained until every standby has cumulatively acknowledged them —
//     never more than Config.RetainLimit bytes, whatever the standbys do:
//     past it the oldest records go, and a standby the trim passes is lost
//     for the epoch and re-syncs when the next epoch restarts the stream at
//     seq 1.
//   - A Standby applies records strictly in sequence order (out-of-order
//     arrivals are buffered, duplicates re-acknowledged) and replies with a
//     cumulative ack: "I durably hold everything up to seq S". The ack also
//     carries the highest sequence the standby has seen, so the shipper can
//     tell a hole (retransmit now) from a tail still in flight.
//   - Lost records and lost acks are repaired by retransmission: a hole
//     reported by an ack is refilled immediately, and a probe resends the
//     oldest unacknowledged window whenever a replica has been silent for a
//     full retransmit interval — which is how a replica catches back up
//     after a partition heals or after it restarts.
//
// Epochs make power cycles safe: each Logger rebuild gets a fresh Shipper
// with the next epoch number, standbys track applied prefixes per epoch,
// and recovery replays epochs in order — so a record from a dead epoch can
// never overwrite a newer one.
//
// Standbys live in their own simulation-level crash domains, NOT in the
// machine's: they model separate machines in separate failure domains, and
// surviving the primary's power loss is their entire purpose.
package replica

import (
	"time"

	"repro/internal/obs"
)

// The shipping protocol's timing and framing constants. No experiment,
// campaign or test varies them; what tests do vary (the retention bound)
// stays on Config.
const (
	// RetransmitEvery is the silent-replica probe interval: a replica whose
	// acks have stalled for this long gets its oldest unacknowledged window
	// resent.
	RetransmitEvery = 10 * time.Millisecond
	// holeResendMin rate-limits hole-triggered retransmissions per replica
	// (an ack reporting seen > acked means a gap lost on the wire): about
	// two RTTs on the default link.
	holeResendMin = 2 * time.Millisecond
	// maxResendRecords bounds records resent to one replica per repair round.
	maxResendRecords = 128
	// maxFrameRecords caps how many pending records are coalesced into one
	// wire frame. A flush fires synchronously the moment the cap is reached,
	// so a single non-yielding producer still frames.
	maxFrameRecords = 64
	// maxFrameBytes caps a frame's payload bytes. A single record larger
	// than the cap still ships — alone in its own frame.
	maxFrameBytes = 256 << 10
	// applyDelay is the standby-side cost of processing one record
	// (validate, append to its durable log).
	applyDelay = 2 * time.Microsecond

	// DefaultRetainLimit is what a zero Config.RetainLimit selects.
	DefaultRetainLimit = 256 << 20
)

// Config tunes the shipping protocol. The same Config parameterises the
// Shipper and every Standby so both sides agree on names.
type Config struct {
	// PrimaryName is the shipper's endpoint on the fabric; default "primary".
	PrimaryName string
	// RetainLimit bounds the bytes of shipped-but-unacknowledged records the
	// shipper retains for retransmission. While every standby keeps acking,
	// retention trails the slowest cumulative ack and stays tiny; a standby
	// that stops acking (crash, long partition), or acks on but slower than
	// a local-ack primary writes, would otherwise pin the stream in memory
	// at the write rate. The stream holds at the slowest ack so a standby
	// that comes back can still be repaired, up to RetainLimit; past it the
	// oldest records go, and the standbys that needed them are lost for the
	// epoch — they re-sync at the next epoch, when the stream restarts from
	// seq 1. Default DefaultRetainLimit (256 MiB).
	RetainLimit int64
	// Reg, when set, registers the subsystem's instruments centrally.
	Reg *obs.Registry
	// Trace, when set, records replication trace events (ship, replica
	// apply/ack, quorum, repair, evict, epoch) with causal parentage: a
	// shipped record's span rides the wire in Record.Span, so a standby's
	// apply links back to the primary-side ship that caused it.
	Trace *obs.Tracer
	// TraceQuorumK, when > 0, makes the shipper emit EvQuorumMet the
	// moment the k-th replica covers a sequence — the trace-visible form
	// of the ack policy's quorum barrier. Zero (no quorum tracing) for
	// local-ack deployments.
	TraceQuorumK int
}

func (c *Config) applyDefaults() {
	if c.PrimaryName == "" {
		c.PrimaryName = "primary"
	}
	if c.RetainLimit == 0 {
		c.RetainLimit = DefaultRetainLimit
	}
}
