package replica

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Position is a point in the replicated stream: per epoch, the highest
// sequence number already replayed. The zero value (nil) is the start of
// the stream.
type Position map[int]uint64

// RecoverReport summarises a replica-side recovery replay.
type RecoverReport struct {
	Epochs  int   // epochs any source holds
	Entries int   // records replayed (past the start position)
	Bytes   int64 // their payload bytes
	Runs    int   // coalesced sequential writes issued
	Sectors int64 // sectors those writes covered
	From    []string
	// Through is where the replay leaves the log partition: every epoch's
	// best applied prefix. Handing it back to Recover replays only what
	// arrived since.
	Through Position
	// For a promotion: Applied is the winner's store's applied prefix when
	// the fence went up, which Through must cover; Lag and LagBytes are the
	// records (and their payload bytes) of it past the warm follower's
	// mirror cursor — what the follower had not yet written.
	Applied  Position
	Lag      int
	LagBytes int64
}

// images recycles the copies Recover writes from: a warm follower replays
// every round, and each copy is dead once its writes return.
var images = sync.Pool{New: func() any { return new([]byte) }}

// Recover replays the replicated log into the log partition, from a start
// position on: for every epoch any alive standby holds, the standby with
// the longest applied prefix contributes its records. Because each standby
// applies strictly in order, its log is a contiguous prefix of the stream —
// the longest prefix is a superset of every ack the dead primary ever
// issued against surviving replicas.
//
// Records are folded into a sector image in (epoch, seq) order — later
// writes win, exactly the order the drain would have used — and the image
// lands in coalesced sequential bursts rather than per-record seeks, like
// any sane restore path. Replaying more than was acknowledged is harmless:
// log-partition writes are idempotent sector rewrites, and the engine's
// own scan decides what the log tail means.
//
// from says what the partition already holds: the fold of everything up
// to it, in this same order (a nil from is an empty partition, the cold
// restore). The fold then starts at the first record past it, in the
// first epoch that has one, and takes every later epoch whole: a late
// arrival of an old epoch's suffix must not land over the newer epochs
// already on the partition. So replaying from a position, after replaying
// up to it, leaves the partition sector-identical to one cold replay of
// the same sources. The image is the replay's own copy before the first
// write: a record a store applies while the writes are in flight may
// retire one of these, and its buffer go back to the shipper's pool for
// the next Ship to overwrite.
func Recover(p *sim.Proc, standbys []*Standby, logDev disk.Device, from Position) (RecoverReport, error) {
	rep := RecoverReport{Through: make(Position, len(from)+1)}
	for e, seq := range from {
		rep.Through[e] = seq
	}
	epochSet := make(map[int]bool)
	for _, st := range standbys {
		if !st.Alive() {
			continue
		}
		for _, e := range st.Epochs() {
			epochSet[e] = true
		}
	}
	epochs := make([]int, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	rep.Epochs = len(epochs)

	ss := int64(disk.SectorSize)
	var recs []Record // what the fold takes, in (epoch, seq) order
	folding := false
	for _, e := range epochs {
		var best *Standby
		for _, st := range standbys {
			if st.Alive() && (best == nil || st.AppliedSeq(e) > best.AppliedSeq(e)) {
				best = st
			}
		}
		top := best.AppliedSeq(e)
		after := from[e]
		if folding {
			after = 0
		} else if top <= after {
			continue
		}
		folding = true
		rep.Through[e] = max(top, rep.Through[e])
		rep.From = append(rep.From, fmt.Sprintf("%s:e%d≤%d", best.Name(), e, top))
		for _, rec := range best.Records() {
			if rec.Epoch != e || rec.Seq <= after {
				continue
			}
			rep.Entries++
			rep.Bytes += int64(len(rec.Data))
			if int64(len(rec.Data))%ss != 0 {
				return rep, fmt.Errorf("replica recover: record e%d seq %d at lba %d: %d bytes is not a whole number of %d-byte sectors",
					e, rec.Seq, rec.Lba, len(rec.Data), ss)
			}
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return rep, nil
	}

	// Copy the image out before anything yields, into a buffer that holds
	// it whole: the image is at most the records' bytes.
	held := images.Get().(*[]byte)
	defer images.Put(held)
	if cap(*held) < int(rep.Bytes) {
		*held = make([]byte, 0, rep.Bytes)
	}
	runs, buf := foldImage(recs, ss, (*held)[:0])
	defer func() { *held = buf[:0] }()
	for _, r := range runs {
		rep.Runs++
		rep.Sectors += int64(r.to-r.from) / ss
		if err := logDev.Write(p, r.lba, buf[r.from:r.to], true); err != nil {
			return rep, fmt.Errorf("replica recover: %w", err)
		}
	}
	return rep, nil
}

// imageRun is one contiguous stretch of a folded image: sectors from lba
// on, held in buf[from:to].
type imageRun struct {
	lba      int64
	from, to int
}

// foldImage appends to buf, in LBA order, the newest data for every sector
// recs cover — a later record wins where records overlap — and returns the
// contiguous runs. It sweeps the sector space from record edge to record
// edge, with the records covering the current stretch in a heap by their
// place in recs, so its cost is per record, not per sector.
func foldImage(recs []Record, ss int64, buf []byte) ([]imageRun, []byte) {
	end := func(i int) int64 { return recs[i].Lba + int64(len(recs[i].Data))/ss }
	byStart := make([]int, len(recs))
	edges := make([]int64, 0, 2*len(recs))
	for i, r := range recs {
		byStart[i] = i
		edges = append(edges, r.Lba, end(i))
	}
	slices.SortStableFunc(byStart, func(a, b int) int { return cmp.Compare(recs[a].Lba, recs[b].Lba) })
	slices.Sort(edges)
	edges = slices.Compact(edges)

	var runs []imageRun
	var covering newest
	next := 0
	for k := 0; k+1 < len(edges); k++ {
		lo, hi := edges[k], edges[k+1]
		for ; next < len(byStart) && recs[byStart[next]].Lba <= lo; next++ {
			heap.Push(&covering, byStart[next])
		}
		for covering.Len() > 0 && end(covering[0]) <= lo {
			heap.Pop(&covering)
		}
		if covering.Len() == 0 {
			continue
		}
		w := recs[covering[0]]
		if n := len(runs); n == 0 || runs[n-1].lba+int64(runs[n-1].to-runs[n-1].from)/ss != lo {
			runs = append(runs, imageRun{lba: lo, from: len(buf)})
		}
		buf = append(buf, w.Data[(lo-w.Lba)*ss:(hi-w.Lba)*ss]...)
		runs[len(runs)-1].to = len(buf)
	}
	return runs, buf
}

// newest is a max-heap of record indices: the top is the latest record.
type newest []int

func (h newest) Len() int           { return len(h) }
func (h newest) Less(i, j int) bool { return h[i] > h[j] }
func (h newest) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *newest) Push(x any)        { *h = append(*h, x.(int)) }
func (h *newest) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (r RecoverReport) String() string {
	s := fmt.Sprintf("replica replay: %d entries (%d bytes) from %d epochs in %d writes %v",
		r.Entries, r.Bytes, r.Epochs, r.Runs, r.From)
	if r.Applied != nil {
		s += fmt.Sprintf("; the follower was %d records (%d bytes) behind", r.Lag, r.LagBytes)
	}
	return s
}
