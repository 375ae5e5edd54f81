package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// FlightSnapEvery is the flight recorder's metric-snapshot cadence in
// virtual time: whoever owns the recorder calls Snap this often.
const FlightSnapEvery = 250 * time.Millisecond

const (
	// flightEventWindow is how many recent trace events a frozen record
	// keeps.
	flightEventWindow = 4096
	// flightSnapWindow is how many periodic snapshots the ring keeps.
	flightSnapWindow = 16
)

// FlightSnap is one periodic metrics snapshot in the recorder's ring.
type FlightSnap struct {
	AtNs int64    `json:"at_ns"`
	Snap Snapshot `json:"snap"`
}

// FlightRecord is a frozen, self-contained post-mortem: a TraceDump of the
// most recent events (Dropped counts ring loss plus the window trim) with the
// reason and time of the freeze, the trailing metric snapshots, the registry
// state at the instant of the freeze, and (when a monitor is attached) its
// verdict. It is what a flight-data recorder's recovered box would hold.
type FlightRecord struct {
	TraceDump
	Reason    string         `json:"reason"`
	AtNs      int64          `json:"at_ns"`
	Snapshots []FlightSnap   `json:"snapshots,omitempty"`
	Final     Snapshot       `json:"final"`
	Monitor   *MonitorReport `json:"monitor,omitempty"`
}

// WriteJSON writes the record as compact JSON.
func (r *FlightRecord) WriteJSON(w io.Writer) error { return json.NewEncoder(w).Encode(r) }

// ReadFlightRecord parses a flight record or, since a record is a TraceDump
// plus the freeze, a trace dump (Reason empty). Any other JSON document — a
// metrics snapshot, say — is refused by its unknown fields.
func ReadFlightRecord(r io.Reader) (*FlightRecord, error) {
	var rec FlightRecord
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("obs: parsing trace dump or flight record: %w", err)
	}
	return &rec, nil
}

// FlightRecorder continuously buffers recent history — the obs bundle's
// trace ring plus its own ring of periodic metric snapshots — and freezes
// it into a FlightRecord at the first catastrophic trigger (power loss,
// degrade entry, invariant violation). Only the first freeze wins: the
// record must describe the state leading INTO the incident, not the
// recovery thrash after it.
type FlightRecorder struct {
	o      *Obs
	mon    *Monitor
	snaps  []FlightSnap
	nsnaps int
	frozen *FlightRecord
}

// NewFlightRecorder creates a recorder over an obs bundle; mon may be nil.
func NewFlightRecorder(o *Obs, mon *Monitor) *FlightRecorder {
	return &FlightRecorder{o: o, mon: mon, snaps: make([]FlightSnap, flightSnapWindow)}
}

// Frozen reports whether the recorder already holds a record.
func (f *FlightRecorder) Frozen() bool { return f != nil && f.frozen != nil }

// Snap captures one periodic metrics snapshot into the ring.
func (f *FlightRecorder) Snap(at time.Duration) {
	if f == nil || f.frozen != nil {
		return
	}
	f.snaps[f.nsnaps%len(f.snaps)] = FlightSnap{AtNs: int64(at), Snap: f.o.Registry().Snapshot()}
	f.nsnaps++
}

// Freeze seals the recorder into a FlightRecord; subsequent freezes and
// snaps are no-ops.
func (f *FlightRecorder) Freeze(at time.Duration, reason string) {
	if f == nil || f.frozen != nil {
		return
	}
	rec := &FlightRecord{
		TraceDump: f.o.Tracer().dumpLast(flightEventWindow),
		Reason:    reason,
		AtNs:      int64(at),
		Final:     f.o.Registry().Snapshot(),
	}
	// Oldest-first snapshot ring.
	n := f.nsnaps
	if n > len(f.snaps) {
		n = len(f.snaps)
	}
	for i := 0; i < n; i++ {
		rec.Snapshots = append(rec.Snapshots, f.snaps[(f.nsnaps-n+i)%len(f.snaps)])
	}
	if f.mon != nil {
		mr := f.mon.Report()
		rec.Monitor = &mr
	}
	f.frozen = rec
}

// Record returns the frozen record, or nil if nothing froze.
func (f *FlightRecorder) Record() *FlightRecord {
	if f == nil {
		return nil
	}
	return f.frozen
}
