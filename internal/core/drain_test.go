package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestDrainCoalescesMixedRuns drains a batch holding a contiguous run of
// mixed-size entries next to isolated entries, and checks the run goes to
// the backing disk as one streaming write while the stragglers go alone.
func TestDrainCoalescesMixedRuns(t *testing.T) {
	r := newRig(t, 1, power.PSUMeasured, Config{})
	// One blocker first: the drainer picks it up immediately (batch of 1)
	// and spends a disk-arm-visible amount of time on it, so the writes
	// issued behind it accumulate into a single second batch.
	writes := []struct {
		lba  int64
		data []byte
	}{
		{4000, pattern(4096, 1)}, // blocker
		{0, pattern(4096, 2)},    // run: sectors 0..8
		{8, pattern(8192, 3)},    // run: sectors 8..24 (different size, still contiguous)
		{24, pattern(4096, 4)},   // run: sectors 24..32
		{100, pattern(4096, 5)},  // isolated
		{200, pattern(4096, 6)},  // isolated
	}
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		for _, w := range writes {
			if err := r.l.Write(p, w.lba, w.data, false); err != nil {
				t.Errorf("write lba %d: %v", w.lba, err)
				return
			}
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if occ := r.l.BufferedBytes(); occ != 0 {
		t.Fatalf("buffer not fully drained: %d bytes left", occ)
	}
	if rounds := r.l.RapiStats().DrainRounds.Value(); rounds != 2 {
		t.Fatalf("drain rounds = %d, want 2 (blocker, then the rest)", rounds)
	}
	// 6 entries but only 4 device writes: blocker, coalesced run 0..32,
	// and one each for the two isolated entries.
	if w := r.hdd.Stats().Writes.Value(); w != 4 {
		t.Fatalf("backing device saw %d writes for 6 entries, want 4 (run not coalesced?)", w)
	}
	// The buffer is empty, so reads now come straight off the disk: every
	// entry — coalesced or not — must have landed intact.
	r.s.Spawn(r.guest, "check", func(p *sim.Proc) {
		for _, w := range writes {
			got, err := readN(p, r.l, w.lba, len(w.data)/disk.SectorSize)
			if err != nil {
				t.Errorf("read lba %d: %v", w.lba, err)
				return
			}
			if !bytes.Equal(got, w.data) {
				t.Errorf("disk contents at lba %d do not match the write", w.lba)
			}
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorptionMismatchedSizes rewrites a buffered block with a different
// payload size. Absorption only applies to same-size rewrites (the entry's
// buffer is updated in place); a mismatched rewrite must take the fresh-entry
// path, and the newest data must win both in buffered reads and on disk.
func TestAbsorptionMismatchedSizes(t *testing.T) {
	r := newRig(t, 1, power.PSUMeasured, Config{})
	small := pattern(4096, 7)
	bigOld := pattern(8192, 8)
	bigNew := pattern(8192, 9)
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		// Blocker: keeps the drainer busy so the lba-512 entries stay
		// buffered (and absorbable) for the rest of the sequence.
		for _, w := range [][2]any{
			{int64(4000), pattern(4096, 1)},
			{int64(512), small},  // fresh 4 KiB entry
			{int64(512), bigOld}, // 8 KiB: size mismatch, must NOT absorb
			{int64(512), bigNew}, // 8 KiB again: absorbs into bigOld's entry
		} {
			if err := r.l.Write(p, w[0].(int64), w[1].([]byte), false); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		// Still buffered: the overlay must resolve overlaps newest-last.
		got, err := readN(p, r.l, 512, 16)
		if err != nil {
			t.Errorf("buffered read: %v", err)
			return
		}
		if !bytes.Equal(got, bigNew) {
			t.Error("buffered read did not return the newest rewrite")
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a := r.l.RapiStats().Absorbed.Value(); a != 1 {
		t.Fatalf("absorbed = %d, want 1 (same-size rewrite only)", a)
	}
	if occ := r.l.BufferedBytes(); occ != 0 {
		t.Fatalf("buffer not fully drained: %d bytes left", occ)
	}
	// FIFO drain order: the 4 KiB entry lands first, the 8 KiB entry
	// overwrites it. Disk must hold the newest data.
	r.s.Spawn(r.guest, "check", func(p *sim.Proc) {
		got, err := readN(p, r.l, 512, 16)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, bigNew) {
			t.Error("disk contents at lba 512 are not the newest rewrite")
		}
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestThrottledWriterParksOnEmergency pins the interleaving where a
// throttled writer is woken by a space broadcast and the power-fail
// interrupt fires in the same instant, before the writer runs: the writer
// must park forever without inserting its entry — the accounting stays at
// exactly the bytes the emergency dump snapshotted.
func TestThrottledWriterParksOnEmergency(t *testing.T) {
	r := newRig(t, 1, power.PSUMeasured, Config{MaxBuffer: 16384})
	// No drainer: nothing leaves the buffer, so occupancy is exact.
	r.hvDom.Kill()
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		p.SetDaemon(true)               // parks forever once the emergency is declared
		for i := int64(0); i < 5; i++ { // fifth write throttles on a full buffer
			_ = r.l.Write(p, i*8, pattern(4096, byte(i)), false)
		}
	})
	if err := r.s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if th := r.l.RapiStats().Throttled.Value(); th != 1 {
		t.Fatalf("throttled = %d, want 1", th)
	}
	if occ := r.l.BufferedBytes(); occ != 16384 {
		t.Fatalf("buffered = %d, want 16384 (buffer full)", occ)
	}
	// Scheduler callback: wake the throttled writer and declare the
	// emergency in the same instant, before the writer can run.
	r.s.After(0, func() {
		r.l.emergency = true
		r.l.spaceSig.Broadcast()
	})
	if err := r.s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The writer woke into the emergency and parked; its entry must not
	// have been inserted nor the accounting disturbed.
	if occ := r.l.BufferedBytes(); occ != 16384 {
		t.Fatalf("buffered = %d after emergency, want 16384", occ)
	}
	if w := r.l.RapiStats().Writes.Value(); w != 4 {
		t.Fatalf("acknowledged writes = %d, want 4 (throttled write must never ack)", w)
	}
}
