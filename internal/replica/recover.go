package replica

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// RecoverReport summarises a replica-side recovery replay.
type RecoverReport struct {
	Epochs  int   // epochs replayed
	Entries int   // records contributing to the image
	Bytes   int64 // record payload bytes
	Runs    int   // coalesced sequential writes issued
	From    []string
}

// Recover replays the replicated log into the log partition at boot: for
// every epoch any alive standby holds, the standby with the longest
// applied prefix contributes its records. Because each standby applies
// strictly in order, its log is a contiguous prefix of the stream — the
// longest prefix is a superset of every ack the dead primary ever issued
// against surviving replicas.
//
// Records are folded into a sector image in (epoch, seq) order — later
// writes win, exactly the order the drain would have used — and the image
// lands in coalesced sequential bursts rather than per-record seeks, like
// any sane restore path. Replaying more than was acknowledged is harmless:
// log-partition writes are idempotent sector rewrites, and the engine's
// own scan decides what the log tail means.
func Recover(p *sim.Proc, standbys []*Standby, logDev disk.Device) (RecoverReport, error) {
	var rep RecoverReport
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

	ss := int64(logDev.SectorSize())
	img := make(map[int64][]byte) // sector → newest data for it
	for _, e := range epochs {
		var best *Standby
		for _, st := range standbys {
			if st.Alive() && (best == nil || st.AppliedSeq(e) > best.AppliedSeq(e)) {
				best = st
			}
		}
		rep.From = append(rep.From, fmt.Sprintf("%s:e%d≤%d", best.Name(), e, best.AppliedSeq(e)))
		for _, rec := range best.Records() {
			if rec.Epoch != e {
				continue
			}
			rep.Entries++
			rep.Bytes += int64(len(rec.Data))
			if int64(len(rec.Data))%ss != 0 {
				return rep, fmt.Errorf("replica recover: record e%d seq %d at lba %d: %d bytes is not a whole number of %d-byte sectors",
					e, rec.Seq, rec.Lba, len(rec.Data), ss)
			}
			nsec := int64(len(rec.Data)) / ss
			for i := int64(0); i < nsec; i++ {
				img[rec.Lba+i] = rec.Data[i*ss : (i+1)*ss]
			}
		}
	}
	if len(img) == 0 {
		return rep, nil
	}

	lbas := make([]int64, 0, len(img))
	for lba := range img {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	run := make([]byte, 0, 1<<20)
	start := lbas[0]
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		rep.Runs++
		err := logDev.Write(p, start, run, true)
		run = run[:0]
		return err
	}
	for i, lba := range lbas {
		if i > 0 && lba != lbas[i-1]+1 {
			if err := flush(); err != nil {
				return rep, fmt.Errorf("replica recover: %w", err)
			}
			start = lba
		}
		run = append(run, img[lba]...)
	}
	if err := flush(); err != nil {
		return rep, fmt.Errorf("replica recover: %w", err)
	}
	return rep, nil
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("replica replay: %d entries (%d bytes) from %d epochs in %d writes %v",
		r.Entries, r.Bytes, r.Epochs, r.Runs, r.From)
}
