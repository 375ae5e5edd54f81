package replica

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// randomStream builds n records over a few epochs on a 64-sector span:
// random extents that overlap partially, and frequent exact rewrites of an
// earlier extent of the same epoch (the WAL tail block's pattern).
func randomStream(rng *rand.Rand, n int) []Record {
	var out []Record
	epoch, seq := 1, uint64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(60) == 0 {
			epoch, seq = epoch+1, 0
		}
		seq++
		lba, nsec := rng.Int63n(48), 1+rng.Intn(16)
		if len(out) > 0 && rng.Intn(2) == 0 {
			prev := out[rng.Intn(len(out))]
			if prev.Epoch == epoch {
				lba, nsec = prev.Lba, len(prev.Data)/512
			}
		}
		data := make([]byte, nsec*512)
		rng.Read(data)
		out = append(out, Record{Epoch: epoch, Seq: seq, Lba: lba, Data: data})
	}
	return out
}

// foldAll is the keep-everything reference: every record, in (epoch, seq)
// order, later writes winning.
func foldAll(recs []Record) map[int64][]byte {
	img := map[int64][]byte{}
	for _, r := range recs {
		for i := 0; i < len(r.Data)/512; i++ {
			img[r.Lba+int64(i)] = r.Data[i*512 : (i+1)*512]
		}
	}
	return img
}

// readAll returns a mem disk's first n sectors.
func readAll(t *testing.T, p *sim.Proc, d disk.Device, n int) []byte {
	t.Helper()
	b, err := readN(p, d, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newMemLog(s *sim.Sim) disk.Device {
	return disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 20})
}

// TestLiveVersionsFoldToTheKeepEverythingImage: a store that retires every
// record a later one of its epoch rewrote exactly still replays the image
// the whole stream folds to.
func TestLiveVersionsFoldToTheKeepEverythingImage(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		st := NewStandby(s, netsim.New(s, netsim.Config{Seed: seed}), "standby0", Config{})
		stream := randomStream(rng, 400)
		for _, r := range stream {
			st.apply(r, false)
		}
		if len(st.Records()) >= len(stream) {
			t.Fatalf("seed %d: the store kept all %d records: nothing was retired", seed, len(stream))
		}
		want := foldAll(stream)
		mem := newMemLog(s)
		s.Spawn(nil, "replay", func(p *sim.Proc) {
			if _, err := Recover(p, []*Standby{st}, mem, nil); err != nil {
				t.Error(err)
				return
			}
			got := readAll(t, p, mem, 64)
			for lba := int64(0); lba < 64; lba++ {
				w := want[lba]
				if w == nil {
					w = make([]byte, 512)
				}
				if !bytes.Equal(got[lba*512:(lba+1)*512], w) {
					t.Errorf("seed %d: sector %d differs from the keep-everything fold", seed, lba)
					return
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayFromPositionMatchesColdReplay: mirroring a store round by round
// (each replay from where the last one left off), then replaying the
// suffix from every source, leaves the partition sector-identical to one
// cold replay of the same sources — also when the other source holds a
// longer prefix of an old epoch than the mirrored store, so that suffix
// lands under newer epochs already written.
func TestReplayFromPositionMatchesColdReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		fab := netsim.New(s, netsim.Config{Seed: seed})
		own := NewStandby(s, fab, "own", Config{})
		other := NewStandby(s, fab, "other", Config{})
		stream := randomStream(rng, 300)
		// The other store holds every epoch whole; the mirrored one misses
		// the tail of epoch 1 (it was cut off through the takeover).
		cut := 0
		for i, r := range stream {
			if r.Epoch == 1 {
				cut = i - rng.Intn(10)
			}
		}
		warm, cold := newMemLog(s), newMemLog(s)
		s.Spawn(nil, "replay", func(p *sim.Proc) {
			var pos Position
			for i, r := range stream {
				other.apply(r, false)
				if r.Epoch > 1 || i < cut {
					own.apply(r, false)
				}
				if rng.Intn(25) == 0 {
					rep, err := Recover(p, []*Standby{own}, warm, pos)
					if err != nil {
						t.Error(err)
						return
					}
					pos = rep.Through
				}
			}
			if _, err := Recover(p, []*Standby{own, other}, warm, pos); err != nil {
				t.Error(err)
				return
			}
			if _, err := Recover(p, []*Standby{own, other}, cold, nil); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(readAll(t, p, warm, 64), readAll(t, p, cold, 64)) {
				t.Errorf("seed %d: the mirrored partition differs from a cold replay", seed)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
