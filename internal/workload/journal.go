// Package workload provides the benchmark drivers used in the evaluation:
// a TPC-C-derived OLTP mix, a TPC-B/pgbench-style account-update workload,
// and a commit-stress microbenchmark, plus the client runner and the
// acked-commit journal the durability experiments check against.
//
// The journal is the heart of the fault-injection methodology: it lives in
// the harness (outside every simulated crash domain), so it plays the role
// of the paper's external client — whatever the database acknowledged
// before a crash must still be there afterwards.
package workload

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/sim"
)

// journalEntry is one durability obligation: key must exist after recovery,
// and, when Want is non-nil, hold exactly that value.
type journalEntry struct {
	Key  string
	Want []byte // nil: existence is enough (multi-writer keys)
}

// Journal records the durable obligations of acknowledged transactions. It
// is plain harness memory: simulated crashes cannot touch it.
type Journal struct {
	entries []journalEntry
}

// NewJournal creates an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Add records an obligation. Call it only after Commit returned nil.
func (j *Journal) Add(key string, want []byte) {
	j.entries = append(j.entries, journalEntry{Key: key, Want: want})
}

// Len returns the number of obligations recorded.
func (j *Journal) Len() int { return len(j.entries) }

// VerifyResult summarises a post-recovery durability check.
type VerifyResult struct {
	Checked    int
	Missing    int // acked keys absent after recovery: durability violations
	Mismatched int // acked keys with wrong contents: corruption
	FirstBad   string
}

// Ok reports whether every obligation held.
func (r VerifyResult) Ok() bool { return r.Missing == 0 && r.Mismatched == 0 }

func (r VerifyResult) String() string {
	if r.Ok() {
		return fmt.Sprintf("journal verify: %d acked transactions, all durable", r.Checked)
	}
	return fmt.Sprintf("journal verify: %d checked, %d MISSING, %d MISMATCHED (first: %s)",
		r.Checked, r.Missing, r.Mismatched, r.FirstBad)
}

// Verify checks every journaled obligation against a freshly recovered
// engine.
func (j *Journal) Verify(p *sim.Proc, e *engine.Engine) (VerifyResult, error) {
	return j.VerifyFirst(p, e, len(j.entries))
}

// VerifyFirst checks only the first n obligations. Every ack a client saw is
// an obligation, so an audit calls Verify; the one caller left is the
// benchmark's failover workload (benchmark/failover.go), which audits the
// acks made up to its first commit on the promoted leader and switches to
// Verify with the next change to the benchmark (ROADMAP item 4).
func (j *Journal) VerifyFirst(p *sim.Proc, e *engine.Engine, n int) (VerifyResult, error) {
	if n > len(j.entries) {
		n = len(j.entries)
	}
	var res VerifyResult
	tx := e.Begin(p)
	defer tx.Abort()
	for _, ent := range j.entries[:n] {
		res.Checked++
		v, ok, err := tx.Get(ent.Key)
		if err != nil {
			return res, fmt.Errorf("journal verify: reading %q: %v", ent.Key, err)
		}
		if !ok {
			res.Missing++
			if res.FirstBad == "" {
				res.FirstBad = "missing " + ent.Key
			}
			continue
		}
		if ent.Want != nil && !bytes.Equal(v, ent.Want) {
			res.Mismatched++
			if res.FirstBad == "" {
				res.FirstBad = "mismatch " + ent.Key
			}
		}
	}
	return res, nil
}
