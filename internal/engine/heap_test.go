package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

// Direct heap tests: record placement, relocation, tombstones and index
// rebuild, independent of transactions and the WAL.

func heapRig(t *testing.T, seed int64) (*sim.Sim, *pagestore.Store, *heap) {
	t.Helper()
	s := sim.New(seed)
	dev := disk.NewMem(s, disk.MemConfig{Persistent: true, Capacity: 1 << 17})
	st, err := pagestore.Open(s, dev, nil, pagestore.Config{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st.SetWrittenThrough(-1)
	return s, st, newHeap(st)
}

// putKey and getKey are put and appendGet for a key hashed as a
// transaction hashes it.
func (h *heap) putKey(p *sim.Proc, key string, val []byte) error {
	return put(h, p, keyHash(key), key, val)
}

func (h *heap) getKey(p *sim.Proc, key string) ([]byte, bool, error) {
	return h.appendGet(nil, p, keyHash(key), key)
}

func TestHeapPutGet(t *testing.T) {
	s, _, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		if err := h.putKey(p, "k", []byte("v1")); err != nil {
			t.Errorf("put: %v", err)
		}
		v, ok, _ := h.getKey(p, "k")
		if !ok || string(v) != "v1" {
			t.Errorf("get: %q %v", v, ok)
		}
		if _, ok, _ := h.getKey(p, "nope"); ok {
			t.Error("missing key visible")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInPlaceUpdateKeepsLocation(t *testing.T) {
	s, _, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		_ = h.putKey(p, "k", bytes.Repeat([]byte{1}, 100))
		loc1 := h.index[keyHash("k")]
		_ = h.putKey(p, "k", bytes.Repeat([]byte{2}, 100)) // fits valCap
		loc2 := h.index[keyHash("k")]
		if loc1 != loc2 {
			t.Errorf("same-size update relocated: %+v → %+v", loc1, loc2)
		}
		v, _, _ := h.getKey(p, "k")
		if !bytes.Equal(v, bytes.Repeat([]byte{2}, 100)) {
			t.Error("in-place update content wrong")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapGrowingUpdateRelocates(t *testing.T) {
	s, _, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		_ = h.putKey(p, "k", bytes.Repeat([]byte{1}, 10))
		loc1 := h.index[keyHash("k")]
		_ = h.putKey(p, "k", bytes.Repeat([]byte{2}, 1000)) // exceeds valCap
		loc2 := h.index[keyHash("k")]
		if loc1 == loc2 {
			t.Error("growing update did not relocate")
		}
		v, ok, _ := h.getKey(p, "k")
		if !ok || len(v) != 1000 || v[0] != 2 {
			t.Error("relocated content wrong")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapFillsMultiplePages(t *testing.T) {
	s, _, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if err := h.putKey(p, fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if h.nextPage < 5 {
			t.Errorf("nextPage = %d; 100×250B rows should span several 4KiB pages", h.nextPage)
		}
		for i := 0; i < 100; i++ {
			v, ok, _ := h.getKey(p, fmt.Sprintf("key-%03d", i))
			if !ok || v[0] != byte(i) {
				t.Errorf("key-%03d wrong after spill", i)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapRowTooLarge(t *testing.T) {
	s, st, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		if err := h.putKey(p, "big", make([]byte, st.UsableSize())); !errors.Is(err, ErrValueTooLarge) {
			t.Errorf("oversized row: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapRebuildRestoresIndex(t *testing.T) {
	s, st, h := heapRig(t, 1)
	s.Spawn(nil, "t", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			_ = h.putKey(p, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i + 1)}, 150))
		}
		_ = h.putKey(p, "k20", bytes.Repeat([]byte{0xFF}, 600)) // relocate: tombstones the old record
		if err := st.CheckpointBelow(p, st.NumPages()); err != nil {
			t.Errorf("checkpoint: %v", err)
		}

		// Fresh heap over the same store (index lost, pages remain).
		h2 := newHeap(st)
		if err := h2.rebuild(p, h.nextPage); err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		if h2.index[keyHash("k20")] != h.index[keyHash("k20")] {
			t.Errorf("rebuild indexed k20 at %+v, its live record is at %+v", h2.index[keyHash("k20")], h.index[keyHash("k20")])
		}
		v, ok, _ := h2.getKey(p, "k20")
		if !ok || len(v) != 600 || v[0] != 0xFF {
			t.Error("relocated key wrong after rebuild")
		}
		for i := 0; i < 50; i++ {
			if i == 20 {
				continue
			}
			v, ok, _ := h2.getKey(p, fmt.Sprintf("k%02d", i))
			if !ok || v[0] != byte(i+1) {
				t.Errorf("k%02d wrong after rebuild", i)
				return
			}
		}
		// Inserts must continue cleanly after rebuild.
		if _, err := insert(h2, p, "fresh", []byte("x")); err != nil {
			t.Errorf("insert after rebuild: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// rebuildPerPage is the reference reader: the index rebuild as one Get, and
// so one device request, per page.
func rebuildPerPage(p *sim.Proc, st *pagestore.Store, nextPage int64) (*heap, error) {
	h := newHeap(st)
	h.nextPage = nextPage
	for id := int64(0); id < nextPage; id++ {
		pg, err := st.Get(p, id)
		if err != nil {
			return nil, err
		}
		if err := h.indexPage(pg); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// TestRebuildStreamsInDoublingExtents: on a rotating disk, where every
// request costs a rotation, an index rebuild over N checkpointed pages reads
// them in ⌈log₂N⌉ + 2 requests at most — it took N, one per page — and
// builds the index and insert cursor the per-page reference reader builds.
// A one-page heap, the rebuild every steady-state reboot does, still costs
// one one-page read.
func TestRebuildStreamsInDoublingExtents(t *testing.T) {
	for _, n := range []int64{1, 2, 5, 40, 300} {
		t.Run(fmt.Sprintf("pages=%d", n), func(t *testing.T) {
			s := sim.New(n)
			hdd := disk.NewHDD(s, s.NewDomain("hw"), disk.HDDConfig{})
			dev, _ := disk.NewPartition(hdd, "data", 0, 1<<19)
			open := func() *pagestore.Store {
				st, err := pagestore.Open(s, dev, nil, pagestore.Config{})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			st := open()
			st.SetWrittenThrough(-1)
			h := newHeap(st)
			var got, want *heap
			var reads, sectors int64
			s.Spawn(nil, "t", func(p *sim.Proc) {
				// Six 1 000-byte rows to a page; relocate every seventh row,
				// which tombstones its first record.
				for i := 0; i < 3 || h.insertPage < n-1; i++ {
					key := fmt.Sprintf("k%04d", i)
					if err := h.putKey(p, key, bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if i%7 == 3 {
						_ = h.putKey(p, key, bytes.Repeat([]byte{byte(i)}, 1300))
					}
				}
				if err := st.CheckpointBelow(p, st.NumPages()); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				// Cold restarts: a fresh store per reader, as recovery has.
				cold := open()
				cold.SetWrittenThrough(n - 1)
				r0, s0 := hdd.Stats().Reads.Value(), hdd.Stats().SectorsRead.Value()
				got = newHeap(cold)
				if err := got.rebuild(p, n); err != nil {
					t.Errorf("rebuild: %v", err)
					return
				}
				reads, sectors = hdd.Stats().Reads.Value()-r0, hdd.Stats().SectorsRead.Value()-s0
				ref := open()
				ref.SetWrittenThrough(n - 1)
				var err error
				if want, err = rebuildPerPage(p, ref, n); err != nil {
					t.Errorf("reference rebuild: %v", err)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got == nil || want == nil || len(want.index) == 0 {
				t.Fatal("a rebuild did not finish, or found nothing")
			}
			if len(got.index) != len(want.index) || got.insertPage != want.insertPage || got.insertPage != n-1 {
				t.Fatalf("rebuild indexed %d rows with the cursor on page %d; reference %d rows, page %d (heap of %d pages)",
					len(got.index), got.insertPage, len(want.index), want.insertPage, n)
			}
			for hash, l := range want.index {
				if got.index[hash] != l {
					t.Fatalf("row of hash %#x at %#x, reference %#x", hash, got.index[hash], l)
				}
			}
			if pageSec := int64(8192 / 512); n == 1 && (reads != 1 || sectors != pageSec) {
				t.Fatalf("one-page heap: %d reads of %d sectors, want one read of one page", reads, sectors)
			}
			if limit := int64(bits.Len(uint(n-1))) + 2; reads > limit {
				t.Fatalf("%d device reads for %d pages, want at most ⌈log₂N⌉+2 = %d", reads, n, limit)
			}
		})
	}
}

// Property: the heap behaves like a map under random puts that grow rows
// past their slot (a tombstone and a new record) or fit in place, across an
// index rebuild.
func TestHeapMatchesMapProperty(t *testing.T) {
	prop := func(seed int64, ops uint8) bool {
		s, st, h := heapRig(t, seed)
		model := make(map[string]byte)
		good := true
		s.Spawn(nil, "t", func(p *sim.Proc) {
			n := int(ops)%120 + 10
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d", s.Rand().Intn(20))
				val := byte(s.Rand().Intn(255) + 1)
				size := 1 + s.Rand().Intn(500)
				if err := h.putKey(p, key, bytes.Repeat([]byte{val}, size)); err != nil {
					good = false
					return
				}
				model[key] = val
			}
			// Rebuild and compare against the model.
			_ = st.CheckpointBelow(p, st.NumPages())
			h2 := newHeap(st)
			if err := h2.rebuild(p, h.nextPage); err != nil {
				good = false
				return
			}
			for key, val := range model {
				v, ok, _ := h2.getKey(p, key)
				if !ok || v[0] != val {
					good = false
					return
				}
			}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i)
				if _, inModel := model[key]; !inModel {
					if _, ok, _ := h2.getKey(p, key); ok {
						good = false
						return
					}
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return good
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}
