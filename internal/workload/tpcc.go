package workload

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/engine"
	"repro/internal/sim"
)

// TPCC is a TPC-C-derived OLTP workload: the five standard transaction
// types in the standard mix over the warehouse/district/customer/stock
// schema, with NURand skew, scaled down so a simulated machine loads in
// seconds. It is "TPC-C-like" in exactly the sense the paper's benchmark
// was: same access pattern and commit rate characteristics, no pretence of
// an auditable tpmC number.
type TPCC struct {
	Warehouses int // default 2
	Districts  int // per warehouse; default 10
	Customers  int // per district; default 30
	Items      int // global; default 1000
	RowFiller  int // padding bytes per row to mimic real row widths; default 60
	// Owned, when set, restricts this instance to exactly these warehouse
	// ids: Load populates only them and Do only drives them. A sharded
	// deployment gives each shard a clone owning a disjoint subset (see
	// Split), so shards never touch each other's rows.
	Owned []int

	hist uint64     // history row id source (harness-side uniqueness)
	enc  *tpccCodec // built on first use; Split's clones start without one
}

// tpccCodec is one TPCC instance's encoding state: the row scratch buffer,
// the tables of its fixed keys and the arena of the rest (codec.go).
type tpccCodec struct {
	buf                                        scratch
	warehouse, district, customer, item, stock keyTable
	keys                                       arena // orders, order lines, history rows
}

func (c *tpccCodec) order(wid, did, oid int) string { return arenaKey(&c.keys, "o", wid, did, oid) }
func (c *tpccCodec) orderLine(wid, did, oid, l int) string {
	return arenaKey(&c.keys, "ol", wid, did, oid, l)
}
func (c *tpccCodec) history(id uint64) string { return arenaKey(&c.keys, "h", int(id)) }

// codec returns w's encoding state, building it on first use.
func (w *TPCC) codec() *tpccCodec {
	if w.enc == nil {
		w.enc = &tpccCodec{
			warehouse: newKeyTable("w", w.Warehouses),
			district:  newKeyTable("d", w.Warehouses, w.Districts),
			customer:  newKeyTable("c", w.Warehouses, w.Districts, w.Customers),
			item:      newKeyTable("i", w.Items),
			stock:     newKeyTable("s", w.Warehouses, w.Items),
		}
	}
	return w.enc
}

// ownedWarehouses returns the warehouse ids this instance drives.
func (w *TPCC) ownedWarehouses() []int {
	if len(w.Owned) > 0 {
		return w.Owned
	}
	ids := make([]int, w.Warehouses)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

func (w *TPCC) applyDefaults() {
	if w.Warehouses == 0 {
		w.Warehouses = 2
	}
	if w.Districts == 0 {
		w.Districts = 10
	}
	if w.Customers == 0 {
		w.Customers = 30
	}
	if w.Items == 0 {
		w.Items = 1000
	}
	if w.RowFiller == 0 {
		w.RowFiller = 60
	}
}

// Name implements Workload.
func (w *TPCC) Name() string { return "tpcc" }

// itemRow is the one row with a text field: price|item-<id>|filler.
func itemRow(price, id, pad int) []byte {
	b := strconv.AppendInt(make([]byte, 0, 32+pad), int64(price), 10)
	b = append(b, "|item-"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '|')
	return appendFiller(b, pad)
}

// decDistrict reads a district row: nextOID|nextDeliveryOID|ytd|filler.
func decDistrict(v []byte) (nextOID, nextDeliv, ytd int, err error) {
	err = parseRow(v, &nextOID, &nextDeliv, &ytd)
	return
}

// Load populates the schema. Run it once per database lifetime, before any
// clients start.
func (w *TPCC) Load(p *sim.Proc, e *engine.Engine) error {
	w.applyDefaults()
	c := w.codec()

	// Items (read-mostly).
	tx := e.Begin(p)
	for i := 1; i <= w.Items; i++ {
		if err := tx.Put(c.item.key(i), itemRow(100+i%900, i, w.RowFiller)); err != nil {
			return err
		}
		if i%200 == 0 { // bound transaction size during load
			if err := tx.Commit(); err != nil {
				return err
			}
			tx = e.Begin(p)
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	for _, wid := range w.ownedWarehouses() {
		tx := e.Begin(p)
		if err := tx.Put(c.warehouse.key(wid), c.buf.row(w.RowFiller, 0)); err != nil {
			return err
		}
		for did := 1; did <= w.Districts; did++ {
			if err := tx.Put(c.district.key(wid, did), c.buf.row(w.RowFiller, 1, 1, 0)); err != nil {
				return err
			}
			for cid := 1; cid <= w.Customers; cid++ {
				if err := tx.Put(c.customer.key(wid, did, cid), c.buf.row(w.RowFiller, 0, 0)); err != nil {
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			tx = e.Begin(p)
		}
		for i := 1; i <= w.Items; i++ {
			if err := tx.Put(c.stock.key(wid, i), c.buf.row(w.RowFiller, 50+i%50, 0)); err != nil {
				return err
			}
			if i%200 == 0 {
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

// nuRand is TPC-C's non-uniform random: skews item and customer selection.
func nuRand(p *sim.Proc, a, x, y int) int {
	r := p.Sim().Rand()
	c := a / 2
	return (((r.Intn(a+1) | (x + r.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// Do implements Workload: run one transaction of the standard mix.
// The returned journal obligations are recorded by the caller only if the
// commit succeeds.
func (w *TPCC) Do(p *sim.Proc, e *engine.Engine, j *Journal) error {
	w.applyDefaults()
	r := p.Sim().Rand()
	roll := r.Intn(100)
	switch {
	case roll < 45:
		return w.newOrder(p, e, j)
	case roll < 88:
		return w.payment(p, e, j)
	case roll < 92:
		return w.orderStatus(p, e)
	case roll < 96:
		return w.delivery(p, e, j)
	default:
		return w.stockLevel(p, e)
	}
}

func (w *TPCC) pick(p *sim.Proc) (wid, did int) {
	r := p.Sim().Rand()
	if len(w.Owned) > 0 {
		return w.Owned[r.Intn(len(w.Owned))], 1 + r.Intn(w.Districts)
	}
	return 1 + r.Intn(w.Warehouses), 1 + r.Intn(w.Districts)
}

func (w *TPCC) newOrder(p *sim.Proc, e *engine.Engine, j *Journal) error {
	r := p.Sim().Rand()
	wid, did := w.pick(p)
	cid := 1 + nuRand(p, 255, 0, w.Customers-1)
	nLines := 5 + r.Intn(11)

	c := w.codec()
	tx := e.Begin(p)
	// District: allocate the order id.
	dk := c.district.key(wid, did)
	dv, ok, err := tx.Get(dk)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: district missing")
		}
		return err
	}
	nextOID, nextDeliv, ytd, err := decDistrict(dv)
	if err != nil {
		tx.Abort()
		return err
	}
	oid := nextOID
	if err := tx.Put(dk, c.buf.row(w.RowFiller, nextOID+1, nextDeliv, ytd)); err != nil {
		tx.Abort()
		return err
	}
	// Lines: read item, update stock, insert order line.
	total := 0
	for l := 1; l <= nLines; l++ {
		iid := 1 + nuRand(p, 8191, 0, w.Items-1)
		iv, ok, err := tx.Get(c.item.key(iid))
		if err != nil || !ok {
			tx.Abort()
			if err == nil {
				err = errors.New("tpcc: item missing")
			}
			return err
		}
		var price int
		_ = parseRow(iv, &price)
		qty := 1 + r.Intn(10)
		total += price * qty

		sk := c.stock.key(wid, iid)
		sv, ok, err := tx.Get(sk)
		if err != nil || !ok {
			tx.Abort()
			if err == nil {
				err = errors.New("tpcc: stock missing")
			}
			return err
		}
		var sQty, sYtd int
		_ = parseRow(sv, &sQty, &sYtd)
		sQty -= qty
		if sQty < 10 {
			sQty += 91
		}
		if err := tx.Put(sk, c.buf.row(w.RowFiller, sQty, sYtd+qty)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Put(c.orderLine(wid, did, oid, l), c.buf.row(w.RowFiller, iid, qty, price*qty)); err != nil {
			tx.Abort()
			return err
		}
	}
	okey := c.order(wid, did, oid)
	if err := tx.Put(okey, c.buf.row(w.RowFiller, cid, nLines, 0, total)); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if j != nil {
		// The order row is written only by this transaction until its
		// delivery; existence after recovery is the durability witness.
		j.Add(okey, nil)
	}
	return nil
}

func (w *TPCC) payment(p *sim.Proc, e *engine.Engine, j *Journal) error {
	r := p.Sim().Rand()
	wid, did := w.pick(p)
	cid := 1 + nuRand(p, 255, 0, w.Customers-1)
	amount := 1 + r.Intn(5000)

	c := w.codec()
	tx := e.Begin(p)
	wk := c.warehouse.key(wid)
	wv, ok, err := tx.Get(wk)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: warehouse missing")
		}
		return err
	}
	var wYtd int
	_ = parseRow(wv, &wYtd)
	if err := tx.Put(wk, c.buf.row(w.RowFiller, wYtd+amount)); err != nil {
		tx.Abort()
		return err
	}
	dk := c.district.key(wid, did)
	dv, ok, err := tx.Get(dk)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: district missing")
		}
		return err
	}
	nextOID, nextDeliv, ytd, _ := decDistrict(dv)
	if err := tx.Put(dk, c.buf.row(w.RowFiller, nextOID, nextDeliv, ytd+amount)); err != nil {
		tx.Abort()
		return err
	}
	ck := c.customer.key(wid, did, cid)
	cv, ok, err := tx.Get(ck)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: customer missing")
		}
		return err
	}
	var bal, pays int
	_ = parseRow(cv, &bal, &pays)
	if err := tx.Put(ck, c.buf.row(w.RowFiller, bal-amount, pays+1)); err != nil {
		tx.Abort()
		return err
	}
	w.hist++
	hk := c.history(w.hist)
	hv := c.buf.row(w.RowFiller, wid, did, cid, amount)
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
		j.Add(hk, hv) // insert-only: exact contents must survive
	}
	return nil
}

func (w *TPCC) orderStatus(p *sim.Proc, e *engine.Engine) error {
	wid, did := w.pick(p)
	cid := 1 + nuRand(p, 255, 0, w.Customers-1)
	c := w.codec()
	tx := e.Begin(p)
	if _, _, err := tx.Get(c.customer.key(wid, did, cid)); err != nil {
		tx.Abort()
		return err
	}
	dv, ok, err := tx.Get(c.district.key(wid, did))
	if err != nil || !ok {
		tx.Abort()
		return err
	}
	nextOID, _, _, _ := decDistrict(dv)
	if nextOID > 1 {
		oid := nextOID - 1
		ov, ok, err := tx.Get(c.order(wid, did, oid))
		if err != nil {
			tx.Abort()
			return err
		}
		if ok {
			var ocid, nLines int
			_ = parseRow(ov, &ocid, &nLines)
			for l := 1; l <= nLines; l++ {
				if _, _, err := tx.Get(c.orderLine(wid, did, oid, l)); err != nil {
					tx.Abort()
					return err
				}
			}
		}
	}
	return tx.Commit()
}

func (w *TPCC) delivery(p *sim.Proc, e *engine.Engine, j *Journal) error {
	wid, did := w.pick(p)
	c := w.codec()
	tx := e.Begin(p)
	dk := c.district.key(wid, did)
	dv, ok, err := tx.Get(dk)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: district missing")
		}
		return err
	}
	nextOID, nextDeliv, ytd, _ := decDistrict(dv)
	if nextDeliv >= nextOID {
		return tx.Commit() // nothing to deliver
	}
	oid := nextDeliv
	okey := c.order(wid, did, oid)
	ov, ok, err := tx.Get(okey)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = fmt.Errorf("tpcc: undelivered order %d missing", oid)
		}
		return err
	}
	var cid, nLines, delivered, total int
	_ = parseRow(ov, &cid, &nLines, &delivered, &total)
	if err := tx.Put(okey, c.buf.row(w.RowFiller, cid, nLines, 1, total)); err != nil {
		tx.Abort()
		return err
	}
	ck := c.customer.key(wid, did, cid)
	cv, ok, err := tx.Get(ck)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: customer missing")
		}
		return err
	}
	var bal, pays int
	_ = parseRow(cv, &bal, &pays)
	if err := tx.Put(ck, c.buf.row(w.RowFiller, bal+total, pays)); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Put(dk, c.buf.row(w.RowFiller, nextOID, nextDeliv+1, ytd)); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if j != nil {
		j.Add(okey, nil) // delivered order must persist
	}
	return nil
}

func (w *TPCC) stockLevel(p *sim.Proc, e *engine.Engine) error {
	wid, did := w.pick(p)
	c := w.codec()
	tx := e.Begin(p)
	dv, ok, err := tx.Get(c.district.key(wid, did))
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("tpcc: district missing")
		}
		return err
	}
	nextOID, _, _, _ := decDistrict(dv)
	// Inspect the stock touched by up to the last 5 orders.
	for oid := nextOID - 5; oid < nextOID; oid++ {
		if oid < 1 {
			continue
		}
		ov, ok, err := tx.Get(c.order(wid, did, oid))
		if err != nil {
			tx.Abort()
			return err
		}
		if !ok {
			continue
		}
		var cid, nLines int
		_ = parseRow(ov, &cid, &nLines)
		for l := 1; l <= nLines && l <= 5; l++ {
			lv, ok, err := tx.Get(c.orderLine(wid, did, oid, l))
			if err != nil {
				tx.Abort()
				return err
			}
			if !ok {
				continue
			}
			var iid int
			_ = parseRow(lv, &iid)
			if _, _, err := tx.Get(c.stock.key(wid, iid)); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	return tx.Commit()
}
