package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

func memStore(t *testing.T, seed int64, cfg Config) (*sim.Sim, disk.Device, *Store) {
	t.Helper()
	s := sim.New(seed)
	dev := disk.NewMem(s, disk.MemConfig{Name: "data", Persistent: true, Capacity: 1 << 17})
	st, err := Open(s, dev, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, st
}

func TestFreshPagesReadZero(t *testing.T) {
	s, _, st := memStore(t, 1, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		pg, err := st.Get(p, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		for _, b := range pg.Data() {
			if b != 0 {
				t.Error("fresh page not zero")
				return
			}
		}
		if len(pg.Data()) != st.UsableSize() {
			t.Errorf("usable size %d", len(pg.Data()))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// dirtyPages counts the dirty pages in st's pool.
func dirtyPages(st *Store) int {
	n := 0
	for _, pg := range st.pool {
		if pg.dirty {
			n++
		}
	}
	return n
}

func TestCheckpointPersistsDirtyPages(t *testing.T) {
	s, dev, st := memStore(t, 1, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		for id := int64(0); id < 5; id++ {
			pg, _ := st.Get(p, id)
			copy(pg.Data(), bytes.Repeat([]byte{byte(id + 1)}, 64))
			pg.LSN = uint64(100 + id)
			st.MarkDirty(id)
		}
		if err := st.CheckpointBelow(p, st.numPages); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Cold restart: new store on the same device.
	s2 := sim.New(2)
	st2, err := Open(s2, dev, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Spawn(nil, "t", func(p *sim.Proc) {
		for id := int64(0); id < 5; id++ {
			pg, err := st2.Get(p, id)
			if err != nil {
				t.Errorf("get after restart: %v", err)
				return
			}
			if !bytes.Equal(pg.Data()[:64], bytes.Repeat([]byte{byte(id + 1)}, 64)) {
				t.Errorf("page %d content lost", id)
			}
			if pg.LSN != uint64(100+id) {
				t.Errorf("page %d LSN = %d", id, pg.LSN)
			}
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if dirtyPages(st) != 0 {
		t.Fatal("dirty flags not cleared by checkpoint")
	}
}

func TestUncheckpointedChangesNotOnDisk(t *testing.T) {
	s, dev, st := memStore(t, 1, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		pg, _ := st.Get(p, 0)
		pg.Data()[0] = 0xFF
		st.MarkDirty(0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(2)
	st2, _ := Open(s2, dev, nil, Config{})
	s2.Spawn(nil, "t", func(p *sim.Proc) {
		pg, _ := st2.Get(p, 0)
		if pg.Data()[0] != 0 {
			t.Error("no-steal violated: unflushed change on disk")
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyPagesNeverEvicted(t *testing.T) {
	s, _, st := memStore(t, 1, Config{PoolPages: 4})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		// Dirty 4 pages, then touch many more: pool grows, dirty stay.
		for id := int64(0); id < 4; id++ {
			pg, _ := st.Get(p, id)
			pg.Data()[0] = byte(id + 1)
			st.MarkDirty(id)
		}
		for id := int64(10); id < 30; id++ {
			_, _ = st.Get(p, id)
		}
		for id := int64(0); id < 4; id++ {
			pg, _ := st.Get(p, id)
			if pg.Data()[0] != byte(id+1) {
				t.Errorf("dirty page %d lost its in-memory change", id)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Evictions.Value() == 0 {
		t.Fatal("no clean evictions despite tiny pool")
	}
}

// TestAllDirtyPoolGrowsWithoutEvicting: with every pooled page dirty (the
// no-steal steady state between rare checkpoints) an insert past PoolPages
// has nothing to evict — the pool grows, and the clean-page count that lets
// maybeEvict know so without walking the pool stays exact through inserts,
// re-dirtying, a checkpoint, a page re-dirtied while its batch is in flight,
// and evictions.
func TestAllDirtyPoolGrowsWithoutEvicting(t *testing.T) {
	s, _, st := memStore(t, 1, Config{PoolPages: 4})
	check := func(when string, pool, dirty int) {
		t.Helper()
		if len(st.pool) != pool || dirtyPages(st) != dirty || st.clean != pool-dirty {
			t.Errorf("%s: %d pooled, %d dirty, clean count %d; want %d pooled, %d dirty, clean %d",
				when, len(st.pool), dirtyPages(st), st.clean, pool, dirty, pool-dirty)
		}
	}
	dirtyPage := func(p *sim.Proc, id int64) {
		if _, err := st.Get(p, id); err != nil {
			t.Errorf("get %d: %v", id, err)
		}
		st.MarkDirty(id)
	}
	s.Spawn(nil, "t", func(p *sim.Proc) {
		for id := int64(0); id < 12; id++ {
			dirtyPage(p, id)
			st.MarkDirty(id) // dirtying twice is counted once
		}
		check("all dirty", 12, 12)
		if n := st.Stats().Evictions.Value(); n != 0 {
			t.Errorf("%d evictions with nothing clean to evict", n)
		}
		// A page re-dirtied while the checkpoint writes stays dirty.
		s.Spawn(nil, "writer", func(*sim.Proc) {
			if st.Stats().Writes.Value() != 0 || st.Stats().Checkpoints.Value() != 0 {
				t.Error("writer did not run inside the checkpoint's first device write")
			}
			st.MarkDirty(3)
		})
		if err := st.CheckpointBelow(p, st.numPages); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		check("after checkpoint", 12, 1)
		// 11 clean pages over a bound of 4: the next insert evicts down to 3.
		dirtyPage(p, 20)
		check("after evicting insert", 4, 2)
		if n := st.Stats().Evictions.Value(); n != 9 {
			t.Errorf("evictions = %d, want 9", n)
		}
		if _, ok := st.pool[3]; !ok {
			t.Error("dirty page 3 was evicted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionBreaksTickTiesByPageID: a Get that parked on its device read
// stamps a clock value another page already holds, and the victim among
// equals used to be whichever the map iterated first — a same-seed,
// different-run hole.
func TestEvictionBreaksTickTiesByPageID(t *testing.T) {
	for run := 0; run < 50; run++ {
		_, _, st := memStore(t, 1, Config{PoolPages: 8})
		for id := int64(8); id > 0; id-- {
			st.insert(&Page{ID: id, tick: 7})
		}
		st.maybeEvict()
		if _, ok := st.pool[1]; ok || len(st.pool) != 7 {
			t.Fatalf("run %d: evicted something other than the lowest id among equal ticks", run)
		}
	}
}

func TestControlBlockRoundTrip(t *testing.T) {
	s, dev, st := memStore(t, 1, Config{})
	blob := []byte("checkpointLSN=12345;endLSN=99")
	s.Spawn(nil, "t", func(p *sim.Proc) {
		if got, _ := st.ReadControl(p); got != nil {
			t.Error("fresh device has a control block")
		}
		if err := st.WriteControl(p, blob); err != nil {
			t.Errorf("write control: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(2)
	st2, _ := Open(s2, dev, nil, Config{})
	s2.Spawn(nil, "t", func(p *sim.Proc) {
		got, err := st2.ReadControl(p)
		if err != nil || !bytes.Equal(got, blob) {
			t.Errorf("control after restart: %q, %v", got, err)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestControlBlockTooLarge(t *testing.T) {
	s, _, st := memStore(t, 1, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		if err := st.WriteControl(p, make([]byte, st.MaxControlLen()+1)); err == nil {
			t.Error("oversized control accepted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleWriteProtectsTornCheckpoint(t *testing.T) {
	// Checkpoint K consecutive pages to an HDD; cut power in the middle of
	// the second checkpoint's in-place write, which is one request for the
	// whole run. Every page must be restored from the double-write area at
	// boot.
	for _, k := range []int64{1, 8} {
		t.Run(fmt.Sprintf("pages=%d", k), func(t *testing.T) {
			s := sim.New(3)
			m := power.NewMachine(s, "m0", 2, power.PSUConfig{
				Name: "instant", HoldupMin: time.Microsecond, HoldupMax: time.Microsecond,
				InterruptLatency: time.Microsecond,
			})
			hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{ChunkSectors: 1})
			m.AttachDevice(hdd)
			part, _ := disk.NewPartition(hdd, "data", 0, 1<<17)
			st, err := Open(s, part, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			dom := m.NewDomain("db")
			old, content := bytes.Repeat([]byte{0xAB}, 128), bytes.Repeat([]byte{0xCD}, 128)
			fill := func(p *sim.Proc, b []byte) {
				for id := int64(3); id < 3+k; id++ {
					pg, _ := st.Get(p, id)
					copy(pg.Data(), b)
					st.MarkDirty(id)
				}
			}
			s.Spawn(dom, "w", func(p *sim.Proc) {
				// Seed the pages with old content, checkpoint fully: the
				// double-write blob, the summary, the run, the summary retire.
				fill(p, old)
				w0 := hdd.Stats().Writes.Value()
				if err := st.CheckpointBelow(p, st.numPages); err != nil {
					t.Errorf("checkpoint 1: %v", err)
				}
				if n := hdd.Stats().Writes.Value() - w0; n != 4 {
					t.Errorf("clean checkpoint of one run issued %d device writes, want 4", n)
				}
				// New content; power dies halfway through the run's sectors,
				// after the double-write copy and summary are durable.
				fill(p, content)
				pageSec := int64(8192 / 512)
				mid := hdd.Stats().SectorsWritten.Value() + k*pageSec + 1 + k*pageSec/2
				s.Spawn(nil, "cut", func(cp *sim.Proc) {
					for hdd.Stats().SectorsWritten.Value() < mid {
						cp.Sleep(5 * time.Microsecond)
					}
					m.CutPower()
				})
				_ = st.CheckpointBelow(p, st.numPages)
			})
			if err := s.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if n := hdd.Stats().TornWrites.Value(); n != 1 {
				t.Fatalf("%d torn writes, want the in-place run torn", n)
			}
			// Boot: restore double writes, then every page must be readable
			// and hold either old or new content in full — never a torn mix.
			m.RestorePower()
			boot := s.NewDomain("boot")
			var got [][]byte
			s.Spawn(boot, "recover", func(p *sim.Proc) {
				part2, _ := disk.NewPartition(hdd, "data2", 0, 1<<17)
				st2, err := Open(s, part2, nil, Config{})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if n, err := st2.RecoverDoubleWrite(p); err != nil || int64(n) != k {
					t.Errorf("dw recover restored %d pages (%v), want %d", n, err, k)
					return
				}
				for id := int64(3); id < 3+k; id++ {
					pg, err := st2.Get(p, id)
					if err != nil {
						t.Errorf("page %d unreadable after DW recovery: %v", id, err)
						return
					}
					got = append(got, append([]byte(nil), pg.Data()[:128]...))
				}
			})
			if err := s.RunFor(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if int64(len(got)) != k {
				t.Fatalf("read back %d of %d pages", len(got), k)
			}
			for i, b := range got {
				if !bytes.Equal(b, content) && !bytes.Equal(b, old) {
					t.Fatalf("page %d holds a torn mix after recovery: % x ...", 3+i, b[:8])
				}
			}
		})
	}
}

// TestRecoverDoubleWriteStreamsTheSlots: a checkpoint of seven pages in
// three runs (3–6, 10–11, 20) loses power halfway through the second run.
// Boot restores every page from the double-write copies with one read of
// the summary and one of all seven slots, then one write per run and one to
// retire the summary — it took a read and a write per slot — and leaves
// each page holding the checkpoint's image, the untouched neighbours theirs.
func TestRecoverDoubleWriteStreamsTheSlots(t *testing.T) {
	s := sim.New(4)
	m := power.NewMachine(s, "m0", 2, power.PSUConfig{
		Name: "instant", HoldupMin: time.Microsecond, HoldupMax: time.Microsecond,
		InterruptLatency: time.Microsecond,
	})
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{ChunkSectors: 1})
	m.AttachDevice(hdd)
	part, _ := disk.NewPartition(hdd, "data", 0, 1<<17)
	st, err := Open(s, part, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{3, 4, 5, 6, 10, 11, 20}
	old, content := bytes.Repeat([]byte{0xAB}, 128), bytes.Repeat([]byte{0xCD}, 128)
	fill := func(p *sim.Proc, b []byte, ids ...int64) {
		for _, id := range ids {
			pg, _ := st.Get(p, id)
			copy(pg.Data(), b)
			st.MarkDirty(id)
		}
	}
	s.Spawn(m.NewDomain("db"), "w", func(p *sim.Proc) {
		fill(p, old, append(ids, 7)...)
		if err := st.CheckpointBelow(p, st.numPages); err != nil {
			t.Errorf("checkpoint 1: %v", err)
		}
		fill(p, content, ids...)
		// The blob, the summary and the first run are durable; half the
		// second run is.
		pageSec := int64(8192 / 512)
		mid := hdd.Stats().SectorsWritten.Value() + 7*pageSec + 1 + 4*pageSec + pageSec
		s.Spawn(nil, "cut", func(cp *sim.Proc) {
			for hdd.Stats().SectorsWritten.Value() < mid {
				cp.Sleep(5 * time.Microsecond)
			}
			m.CutPower()
		})
		_ = st.CheckpointBelow(p, st.numPages)
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if n := hdd.Stats().TornWrites.Value(); n != 1 {
		t.Fatalf("%d torn writes, want the second run torn", n)
	}
	m.RestorePower()
	var restored int
	var reads, writes int64
	got := make(map[int64][]byte)
	s.Spawn(s.NewDomain("boot"), "recover", func(p *sim.Proc) {
		st2, err := Open(s, part, nil, Config{})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		r0, w0 := hdd.Stats().Reads.Value(), hdd.Stats().Writes.Value()
		if restored, err = st2.RecoverDoubleWrite(p); err != nil {
			t.Errorf("dw recover: %v", err)
			return
		}
		reads, writes = hdd.Stats().Reads.Value()-r0, hdd.Stats().Writes.Value()-w0
		for _, id := range append(ids, 7) {
			pg, err := st2.Get(p, id)
			if err != nil {
				t.Errorf("page %d unreadable after DW recovery: %v", id, err)
				return
			}
			got[id] = pg.Data()[:128]
		}
	})
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if restored != len(ids) || reads != 2 || writes != 4 {
		t.Fatalf("restored %d pages in %d reads and %d writes; want %d pages in 2 reads (summary, slots) and 4 writes (3 runs, retire)",
			restored, reads, writes, len(ids))
	}
	for _, id := range ids {
		if !bytes.Equal(got[id], content) {
			t.Fatalf("page %d does not hold its double-write image after recovery: % x ...", id, got[id][:8])
		}
	}
	if !bytes.Equal(got[7], old) {
		t.Fatalf("page 7, outside the checkpoint, changed: % x ...", got[7][:8])
	}
}

func TestRecoverDoubleWriteNoopWhenClean(t *testing.T) {
	s, _, st := memStore(t, 4, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		n, err := st.RecoverDoubleWrite(p)
		if err != nil || n != 0 {
			t.Errorf("clean recover: n=%d err=%v", n, err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPageIDBounds(t *testing.T) {
	s, _, st := memStore(t, 5, Config{})
	s.Spawn(nil, "t", func(p *sim.Proc) {
		if _, err := st.Get(p, -1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("negative id: %v", err)
		}
		if _, err := st.Get(p, st.NumPages()); !errors.Is(err, ErrNoSpace) {
			t.Errorf("beyond capacity: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsBadConfigs(t *testing.T) {
	s := sim.New(6)
	dev := disk.NewMem(s, disk.MemConfig{Capacity: 1 << 17})
	if _, err := Open(s, dev, nil, Config{PageSize: 1000}); err == nil {
		t.Fatal("non-sector-multiple page size accepted")
	}
	tiny := disk.NewMem(s, disk.MemConfig{Capacity: 16})
	if _, err := Open(s, tiny, nil, Config{}); err == nil {
		t.Fatal("too-small device accepted")
	}
}

// Property: after any sequence of page writes and checkpoints followed by a
// cold restart, every checkpointed page reads back exactly, and every page
// passes its checksum.
func TestCheckpointRestartRoundTripProperty(t *testing.T) {
	prop := func(seed int64, nPages uint8) bool {
		n := int64(nPages%20) + 1
		s, dev, st := memStore(t, seed, Config{})
		expect := make(map[int64]byte)
		s.Spawn(nil, "t", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				for id := int64(0); id < n; id++ {
					if s.Rand().Intn(2) == 0 {
						pg, _ := st.Get(p, id)
						v := byte(s.Rand().Intn(255) + 1)
						pg.Data()[7] = v
						st.MarkDirty(id)
						expect[id] = v
					}
				}
				_ = st.CheckpointBelow(p, st.numPages)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		ok := true
		s2 := sim.New(seed + 1)
		st2, _ := Open(s2, dev, nil, Config{})
		s2.Spawn(nil, "t", func(p *sim.Proc) {
			for id, v := range expect {
				pg, err := st2.Get(p, id)
				if err != nil || pg.Data()[7] != v {
					ok = false
					return
				}
			}
		})
		if err := s2.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}
