package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/hv"
	"repro/internal/power"
	"repro/internal/sim"
)

// The fold's data-partition writes, in order (pagestore's layout: sector 0
// is the control block, 1 the double-write summary, 8 the first slot).
const (
	foldIdle     = iota
	foldControl1 // phase 1: the control block widens the page-scan range
	foldBlob     // the double-write copies, one request
	foldSummary  // the summary that arms them
	foldRuns     // the pages in place, one request per run
	foldRetire   // the summary cleared
	foldControl2 // phase 2: the control block publishes the new horizon
	foldPhases
)

var foldPhaseNames = [foldPhases]string{"idle", "control1", "blob", "summary", "runs", "retire", "control2"}

// tapDevice tags each data-partition write with the fold phase it starts.
type tapDevice struct {
	disk.Device
	phase int
}

func (d *tapDevice) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	switch {
	case lba == 0 && d.phase < foldBlob:
		d.phase = foldControl1
	case lba == 0:
		d.phase = foldControl2
	case lba == 1 && d.phase < foldRuns:
		d.phase = foldSummary
	case lba == 1:
		d.phase = foldRetire
	case lba == 8:
		d.phase = foldBlob
	default:
		d.phase = foldRuns
	}
	return d.Device.Write(p, lba, data, fua)
}

// foldRun is one seeded run of the fold scenario: a first life commits 120
// rows, checkpoints them, then updates rows on pages 0, 2 and 4 and inserts
// three more, and crashes; the second life's recovery redoes those commits
// and serves two clients while its checkpointer folds the redone pages.
type foldRun struct {
	s     *sim.Sim
	plat  *hv.Native
	data  *tapDevice
	acked map[string][]byte // every acknowledged write, as of now
	life2 *Engine           // nil until the second boot returns
	// served is the event index at which the second boot returned, and
	// ackedAt the number of acknowledgements at that instant.
	served, ackedAt int
	acks            int
	// doms are the domains the run spawns into: the guest's, the drives'
	// hardware domain and the operator's root domain.
	doms []*sim.Domain
}

func newFoldRun(t *testing.T) *foldRun {
	s := sim.New(27)
	m := power.NewMachine(s, "m0", 4, power.PSUMeasured)
	logHDD := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{Name: "log"})
	dataHDD := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{Name: "data"})
	m.AttachDevice(logHDD)
	m.AttachDevice(dataHDD)
	logPart, _ := disk.NewPartition(logHDD, "log", 0, 1<<17)
	dataPart, _ := disk.NewPartition(dataHDD, "data", 0, 1<<19)
	r := &foldRun{s: s, data: &tapDevice{Device: dataPart}, acked: make(map[string][]byte)}
	r.plat = hv.NewNative(m, logPart, r.data)

	cfg := Config{CheckpointEvery: time.Hour}
	commit := func(p *sim.Proc, e *Engine, key string, val []byte) {
		tx := e.Begin(p)
		if err := tx.Put(key, val); err != nil {
			tx.Abort()
			return
		}
		if tx.Commit() == nil {
			r.acked[key] = val
			r.acks++
		}
	}
	row := func(i int, version byte) []byte {
		return append([]byte{version}, bytes.Repeat([]byte{byte(i)}, 299)...)
	}
	firstLife := s.NewEvent("life1.done")
	s.Spawn(r.plat.Domain(), "life1", func(p *sim.Proc) {
		defer firstLife.Fire()
		e, err := Open(p, r.plat, cfg)
		if err != nil {
			t.Errorf("first boot: %v", err)
			return
		}
		for i := 0; i < 120; i++ { // 21 rows to a page: pages 0–5
			commit(p, e, fmt.Sprintf("k%03d", i), row(i, 1))
		}
		if err := e.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		for _, i := range []int{0, 45, 90, 120, 121, 122} {
			commit(p, e, fmt.Sprintf("k%03d", i), row(i, 2))
		}
	})
	op := s.Spawn(nil, "operator", func(p *sim.Proc) {
		firstLife.Wait(p)
		r.plat.Crash()
		p.Sleep(time.Millisecond)
		r.plat.Reboot()
		s.Spawn(r.plat.Domain(), "life2", func(p *sim.Proc) {
			e, err := Open(p, r.plat, cfg)
			if err != nil {
				t.Errorf("recovery boot: %v", err)
				return
			}
			r.life2, r.served, r.ackedAt = e, int(s.Dispatched()), r.acks
			r.data.phase = foldIdle // the first life's checkpoints are not the fold
			for c := 0; c < 2; c++ {
				c := c
				s.Spawn(r.plat.Domain(), "client", func(p *sim.Proc) {
					for n := 0; ; n++ {
						commit(p, e, fmt.Sprintf("c%d-%03d", c, n), []byte(fmt.Sprintf("client %d write %d", c, n)))
					}
				})
			}
		})
	})
	r.doms = []*sim.Domain{r.plat.Domain(), m.HardwareDomain(), op.Domain()}
	return r
}

// stepTo dispatches events until Sim.Dispatched reaches k.
func (r *foldRun) stepTo(t *testing.T, k int) {
	t.Helper()
	for int(r.s.Dispatched()) < k {
		if ok, err := r.s.Step(); err != nil || !ok {
			t.Fatalf("step to %d: ok=%v err=%v", k, ok, err)
		}
	}
}

// folded reports whether the second life's fold has completed.
func (r *foldRun) folded() bool {
	return r.life2 != nil && r.life2.Stats().Checkpoints.Value() > 0
}

// TestGuestCrashAtEveryEventOfTheFold: a recovered engine serves while its
// checkpointer folds the redone pages. The guest is killed after each event
// k of that fold — control block, double-write blob, summary, in-place runs,
// summary retire, new horizon — with clients committing throughout, and a
// third boot recovers. Every acknowledged write must be there with its
// value, those acknowledged while the fold ran included; the crashed guest
// must leave no process behind, the third boot must finish, and Close must
// release everything.
func TestGuestCrashAtEveryEventOfTheFold(t *testing.T) {
	ref := newFoldRun(t)
	for !ref.folded() {
		if ok, err := ref.s.Step(); err != nil || !ok {
			t.Fatalf("reference run: ok=%v err=%v", ok, err)
		}
	}
	first, last := ref.served, int(ref.s.Dispatched())
	ref.s.Close()

	var byPhase [foldPhases]int
	var restored, maxFoldAcks int
	for k := first; k < last; k++ {
		r := newFoldRun(t)
		r.stepTo(t, k)
		if r.folded() {
			t.Fatalf("k=%d: the fold finished before the reference run's last event", k)
		}
		byPhase[r.data.phase]++
		maxFoldAcks = max(maxFoldAcks, r.acks-r.ackedAt)
		want := make(map[string][]byte, len(r.acked))
		for key, v := range r.acked {
			want[key] = v
		}

		r.plat.Crash()
		if err := r.s.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if n := r.plat.Domain().Procs(); n != 0 {
			t.Fatalf("k=%d: %d processes of the crashed guest still live", k, n)
		}
		r.plat.Reboot()
		checked := false
		r.s.Spawn(r.plat.Domain(), "life3", func(p *sim.Proc) {
			e, err := Open(p, r.plat, Config{NoDaemons: true})
			if err != nil {
				t.Errorf("k=%d: recovery: %v", k, err)
				return
			}
			restored += int(e.Store().Stats().DWRestores.Value())
			tx := e.Begin(p)
			for key, v := range want {
				got, ok, err := tx.Get(key)
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Errorf("k=%d (%s): acknowledged %s lost: ok=%v err=%v", k, foldPhaseNames[r.data.phase], key, ok, err)
					return
				}
			}
			_ = tx.Commit()
			checked = true
		})
		if err := r.s.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		if !checked {
			t.Fatalf("k=%d: the recovered engine never finished its audit", k)
		}
		r.s.Close()
		for i, d := range r.doms {
			if n := d.Procs(); n != 0 {
				t.Fatalf("k=%d: %d processes live in domain %d after Close", k, n, i)
			}
		}
	}

	var coverage []string
	for ph, n := range byPhase {
		coverage = append(coverage, fmt.Sprintf("%s %d", foldPhaseNames[ph], n))
	}
	t.Logf("kill points %d..%d by fold phase: %s; %d pages restored from double-write copies; up to %d writes acknowledged while the fold ran",
		first, last-1, strings.Join(coverage, ", "), restored, maxFoldAcks)
	for _, ph := range []int{foldBlob, foldRuns, foldControl2} {
		if byPhase[ph] == 0 {
			t.Errorf("vacuous sweep: no kill point during the fold's %s", foldPhaseNames[ph])
		}
	}
	if restored == 0 {
		t.Error("vacuous sweep: no crash needed the double-write copies")
	}
	if maxFoldAcks == 0 {
		t.Error("vacuous sweep: no write was acknowledged while the fold ran")
	}
}
