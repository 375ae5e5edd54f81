package workload

import (
	"bytes"
	"errors"

	"repro/internal/engine"
	"repro/internal/sim"
)

// TPCB is the pgbench/TPC-B-style workload: each transaction updates one
// account, its teller and branch, and inserts a history row. It is the
// classic "every transaction commits a tiny update" pattern — maximally
// commit-latency-bound, which is where RapiLog shines brightest.
type TPCB struct {
	Branches  int // default 1
	Tellers   int // per branch; default 10
	Accounts  int // per branch; default 1000
	RowFiller int // default 60
	// Owned, when set, restricts this instance to exactly these branch ids
	// (see TPCC.Owned — the same sharded-deployment partitioning).
	Owned []int

	hist uint64
	enc  *tpcbCodec // built on first use; Split's clones start without one
}

// tpcbCodec is one TPCB instance's encoding state: the row scratch buffer,
// the tables of its fixed keys and the arena of its history keys
// (codec.go).
type tpcbCodec struct {
	buf                     scratch
	branch, teller, account keyTable
	keys                    arena
}

func (c *tpcbCodec) history(id uint64) string { return arenaKey(&c.keys, "bh", int(id)) }

// codec returns w's encoding state, building it on first use.
func (w *TPCB) codec() *tpcbCodec {
	if w.enc == nil {
		w.enc = &tpcbCodec{
			branch:  newKeyTable("b", w.Branches),
			teller:  newKeyTable("t", w.Branches, w.Tellers),
			account: newKeyTable("a", w.Branches, w.Accounts),
		}
	}
	return w.enc
}

// ownedBranches returns the branch ids this instance drives.
func (w *TPCB) ownedBranches() []int {
	if len(w.Owned) > 0 {
		return w.Owned
	}
	ids := make([]int, w.Branches)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

func (w *TPCB) applyDefaults() {
	if w.Branches == 0 {
		w.Branches = 1
	}
	if w.Tellers == 0 {
		w.Tellers = 10
	}
	if w.Accounts == 0 {
		w.Accounts = 1000
	}
	if w.RowFiller == 0 {
		w.RowFiller = 60
	}
}

// Name implements Workload.
func (w *TPCB) Name() string { return "tpcb" }

// Load populates branches, tellers and accounts.
func (w *TPCB) Load(p *sim.Proc, e *engine.Engine) error {
	w.applyDefaults()
	c := w.codec()
	for _, b := range w.ownedBranches() {
		tx := e.Begin(p)
		if err := tx.Put(c.branch.key(b), c.buf.row(w.RowFiller, 0)); err != nil {
			return err
		}
		for t := 1; t <= w.Tellers; t++ {
			if err := tx.Put(c.teller.key(b, t), c.buf.row(w.RowFiller, 0)); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		tx = e.Begin(p)
		for a := 1; a <= w.Accounts; a++ {
			if err := tx.Put(c.account.key(b, a), c.buf.row(w.RowFiller, 0)); err != nil {
				return err
			}
			if a%200 == 0 {
				if err := tx.Commit(); err != nil {
					return err
				}
				tx = e.Begin(p)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// Do implements Workload: one account-update transaction.
func (w *TPCB) Do(p *sim.Proc, e *engine.Engine, j *Journal) error {
	w.applyDefaults()
	r := p.Sim().Rand()
	b := 1 + r.Intn(w.Branches)
	if len(w.Owned) > 0 {
		b = w.Owned[r.Intn(len(w.Owned))]
	}
	t := 1 + r.Intn(w.Tellers)
	a := 1 + r.Intn(w.Accounts)
	delta := r.Intn(2000) - 1000

	c := w.codec()
	tx := e.Begin(p)
	bump := func(key string) error {
		v, ok, err := tx.Get(key)
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("tpcb: row missing: " + key)
		}
		var bal int
		_ = parseRow(v, &bal)
		return tx.Put(key, c.buf.row(w.RowFiller, bal+delta))
	}
	for _, key := range []string{c.account.key(b, a), c.teller.key(b, t), c.branch.key(b)} {
		if err := bump(key); err != nil {
			tx.Abort()
			return err
		}
	}
	w.hist++
	hk := c.history(w.hist)
	hv := c.buf.row(w.RowFiller, b, t, a, delta)
	if j != nil {
		hv = bytes.Clone(hv) // the journal keeps it
	}
	if err := tx.Put(hk, hv); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if j != nil {
		j.Add(hk, hv)
	}
	return nil
}

// Stress is the commit-latency microbenchmark: each transaction writes one
// fresh row and commits. It isolates the commit path completely — the
// workload behind the latency-distribution experiment (E7) and buffer
// sweep (E8).
type Stress struct {
	ValueSize int // default 120
	clientSeq map[int]uint64
	value     []byte // the one value every row carries; never modified
	keys      *arena // built on first use
}

// Name implements Workload.
func (w *Stress) Name() string { return "stress" }

// Load implements Workload (nothing to load).
func (w *Stress) Load(p *sim.Proc, e *engine.Engine) error { return nil }

// DoAs runs one insert-commit for a given client id (keys are
// client-partitioned so stress clients never conflict).
func (w *Stress) DoAs(p *sim.Proc, e *engine.Engine, j *Journal, client int) error {
	if w.ValueSize == 0 {
		w.ValueSize = 120
	}
	if w.clientSeq == nil {
		w.clientSeq = make(map[int]uint64)
		w.keys = new(arena)
	}
	if len(w.value) != w.ValueSize {
		w.value = row(w.ValueSize)
	}
	w.clientSeq[client]++
	k := w.key(client, w.clientSeq[client])
	v := w.value
	tx := e.Begin(p)
	if err := tx.Put(k, v); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if j != nil {
		j.Add(k, v)
	}
	return nil
}

// key is row seq of client's rows.
func (w *Stress) key(client int, seq uint64) string {
	return arenaKey(w.keys, "st", client, int(seq))
}

// Do implements Workload using client 0.
func (w *Stress) Do(p *sim.Proc, e *engine.Engine, j *Journal) error {
	return w.DoAs(p, e, j, 0)
}
