package disk

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestMediaGrowthAllocatesPerSlab: a log that grows into never-written
// sectors pays one allocation per 16-sector slab, not one per sector.
func TestMediaGrowthAllocatesPerSlab(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 100, 256} {
		m := newMedia()
		data := bytes.Repeat([]byte{0xab}, n*SectorSize)
		next := int64(3) // unaligned on purpose
		allocs := testing.AllocsPerRun(50, func() {
			m.writeSectors(next, data)
			next += int64(n)
		})
		// N new contiguous sectors touch at most ⌈N/16⌉ + 1 slabs (an
		// unaligned run straddles one more), amortised over the runs.
		if bound := float64((n+slabSectors-1)/slabSectors + 1); allocs > bound {
			t.Errorf("%d new sectors: %.1f allocations, want ≤ %.0f", n, allocs, bound)
		}
	}
}

// TestHDDReadFillsOneBuffer: a mechanical read fills the caller's buffer
// and allocates nothing, per chunk or per request.
func TestHDDReadFillsOneBuffer(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	var allocs float64
	s.Spawn(nil, "io", func(p *sim.Proc) {
		if err := d.Write(p, 0, make([]byte, 64*SectorSize), true); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64*SectorSize)
		allocs = testing.AllocsPerRun(20, func() {
			if n, err := d.Read(p, 0, buf); err != nil || n != len(buf) {
				t.Errorf("read %d of %d bytes: %v", n, len(buf), err)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Fatalf("64-sector HDD read: %.1f allocations, want 0", allocs)
	}
}

// TestMediaMatchesPerSectorModel: random overlapping writes and reads agree
// with a sector-at-a-time reference.
func TestMediaMatchesPerSectorModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMedia()
	ref := map[int64][]byte{}
	for i := 0; i < 2000; i++ {
		lba, n := rng.Int63n(200), 1+rng.Intn(40)
		if rng.Intn(3) > 0 {
			data := make([]byte, n*SectorSize)
			rng.Read(data)
			m.writeSectors(lba, data)
			for s := 0; s < n; s++ {
				ref[lba+int64(s)] = data[s*SectorSize : (s+1)*SectorSize]
			}
			continue
		}
		got := make([]byte, n*SectorSize)
		m.readSectors(got, lba)
		for s := 0; s < n; s++ {
			want := ref[lba+int64(s)]
			if want == nil {
				want = make([]byte, SectorSize)
			}
			if !bytes.Equal(got[s*SectorSize:(s+1)*SectorSize], want) {
				t.Fatalf("op %d: sector %d differs from the reference", i, lba+int64(s))
			}
		}
	}
}
