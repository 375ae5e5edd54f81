package core

import (
	"bytes"
	"slices"
	"testing"
)

// The buffer's rules, driven directly: no Sim, no devices, no rig. The
// Logger tests in the other files check that the Logger drives them.

// rewriteClass classifies a rewrite of n sectors at lba before it is made,
// for the durability property's coverage, 1 for yes: shadowed when it hits
// an absorbable entry of its exact extent that a newer entry overlaps, and
// inFlight when an entry at lba has entered a drain round.
func rewriteClass(b *buffer, lba int64, n int) (shadowed, inFlight int) {
	if e, ok := b.absorb[lba]; ok && len(e.data) == n*sectorSize {
		for i := len(b.pending) - 1; b.pending[i] != e && shadowed == 0; i-- {
			if _, _, k := b.pending[i].overlap(lba, n); k > 0 {
				shadowed = 1
			}
		}
	}
	for _, e := range b.pending {
		if e.lba == lba && b.absorb[lba] != e {
			inFlight = 1
		}
	}
	return shadowed, inFlight
}

// read returns nsec sectors at lba as a reader of the Logger would see
// them over a device of zeros.
func (b *buffer) read(lba int64, nsec int) []byte {
	dst := make([]byte, nsec*sectorSize)
	b.overlay(lba, dst)
	return dst
}

// drainAll runs one whole drain round, every run landing, and returns the
// bytes it released.
func drainAll(b *buffer) int64 {
	b.startDrain()
	for {
		if _, _, ok := b.nextRun(); !ok {
			return b.retire()
		}
		b.runLanded(func(int64, int, uint64) {})
	}
}

func TestBufferOverlayNewestWins(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(10, pattern(4*sectorSize, 1), 0) // sectors 10..14
	b.insert(12, pattern(4*sectorSize, 2), 0) // sectors 12..16, newer
	got := b.read(8, 10)
	want := make([]byte, 10*sectorSize)
	copy(want[2*sectorSize:], pattern(4*sectorSize, 1))
	copy(want[4*sectorSize:], pattern(4*sectorSize, 2))
	if !bytes.Equal(got, want) {
		t.Fatal("overlay: the read does not see the newest buffered bytes over the device's")
	}
}

func TestBufferAbsorbsSameSizeRewrite(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(8, pattern(4096, 1), 0)
	if !b.absorbed(8, pattern(4096, 9)) {
		t.Fatal("a same-size rewrite of a pending entry was not absorbed")
	}
	if b.count() != 1 || b.size() != 4096 {
		t.Fatalf("absorption took space: %d entries, %d bytes", b.count(), b.size())
	}
	if !bytes.Equal(b.read(8, 8), pattern(4096, 9)) {
		t.Fatal("read after absorption does not see the rewrite")
	}
}

func TestBufferDifferentLengthIsANewEntry(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(32, pattern(4096, 1), 0)
	if b.absorbed(32, pattern(8192, 2)) {
		t.Fatal("a longer rewrite was absorbed in place")
	}
	b.insert(32, pattern(8192, 2), 0)
	if !bytes.Equal(b.read(32, 16), pattern(8192, 2)) {
		t.Fatal("the longer rewrite is not what a read sees")
	}
	if !b.absorbed(32, pattern(8192, 3)) {
		t.Fatal("a rewrite of the newest extent at the lba was not absorbed")
	}
	if b.count() != 2 {
		t.Fatalf("%d entries, want 2", b.count())
	}
}

// TestBufferRefusesShadowedAbsorb: a newer entry overlapping an absorbable
// one would land over an in-place rewrite with older bytes, so the rewrite
// must become a new entry (the fault the durability property found).
func TestBufferRefusesShadowedAbsorb(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(0, pattern(8*sectorSize, 1), 0)
	b.insert(4, pattern(8*sectorSize, 2), 0) // overlaps sectors 4..8
	if b.absorbed(0, pattern(8*sectorSize, 3)) {
		t.Fatal("a rewrite shadowed by a newer entry was absorbed into the older one")
	}
	b.insert(0, pattern(8*sectorSize, 3), 0)
	if !bytes.Equal(b.read(0, 8), pattern(8*sectorSize, 3)) {
		t.Fatal("a read does not see the shadowed rewrite")
	}
	if released := drainAll(&b); released != 3*8*sectorSize {
		t.Fatalf("released %d bytes, want all three entries", released)
	}
}

func TestBufferBoundAndRetire(t *testing.T) {
	b := newBuffer(8192)
	if !b.tooLarge(8193) || b.tooLarge(8192) {
		t.Fatal("tooLarge is not len > bound")
	}
	b.insert(0, pattern(4096, 1), 0)
	b.insert(8, pattern(4096, 2), 0)
	if b.fits(512) || !b.fits(0) {
		t.Fatalf("a full buffer (%d of 8192) accepts more", b.size())
	}
	if released := drainAll(&b); released != 8192 || b.size() != 0 || b.count() != 0 {
		t.Fatalf("retire released %d, left %d bytes in %d entries", released, b.size(), b.count())
	}
	if !b.fits(8192) {
		t.Fatal("a drained buffer does not accept a write of its bound")
	}
}

// TestBufferDrainsCoalescedRunsInOrder: a round coalesces contiguous
// entries of any size into one run, keeps FIFO order, stops at drainBatch
// entries, and entries in a round can no longer be absorbed into.
func TestBufferDrainsCoalescedRunsInOrder(t *testing.T) {
	b := newBuffer(1 << 30)
	b.insert(4000, pattern(4096, 1), 1)
	b.insert(0, pattern(4096, 2), 2)
	b.insert(8, pattern(8192, 3), 3)
	b.insert(24, pattern(4096, 4), 4)
	b.insert(100, pattern(4096, 5), 5)
	if n, size := b.startDrain(); n != 5 || size != 5*4096+4096 {
		t.Fatalf("round of %d entries, %d bytes", n, size)
	}
	if b.absorbed(0, pattern(4096, 9)) {
		t.Fatal("a rewrite was absorbed into an entry of a drain round")
	}
	var runs [][2]int64
	var spans []uint64
	for {
		lba, data, ok := b.nextRun()
		if !ok {
			break
		}
		runs = append(runs, [2]int64{lba, int64(len(data) / sectorSize)})
		if lba == 0 && !bytes.Equal(data, append(append(pattern(4096, 2), pattern(8192, 3)...), pattern(4096, 4)...)) {
			t.Fatal("the coalesced run's bytes are not its entries' in order")
		}
		b.runLanded(func(_ int64, _ int, span uint64) { spans = append(spans, span) })
	}
	want := [][2]int64{{4000, 8}, {0, 32}, {100, 8}}
	if len(runs) != len(want) || !slices.Equal(spans, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("runs %v (want %v), entries landed in span order %v", runs, want, spans)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs %v, want %v", runs, want)
		}
	}

	for i := 0; i < drainBatch+3; i++ {
		b.insert(int64(i*8), pattern(4096, byte(i)), 0)
	}
	if n, _ := b.startDrain(); n != drainBatch {
		t.Fatalf("a round took %d entries, want drainBatch", n)
	}
}

func TestBufferPatchUpdatesEveryOverlap(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(0, pattern(4096, 1), 0)
	b.insert(4, pattern(4096, 2), 0)
	b.startDrain() // patching reaches entries mid-drain too
	b.patch(2, pattern(8*sectorSize, 7))
	want := make([]byte, 12*sectorSize)
	copy(want, pattern(4096, 1))
	copy(want[4*sectorSize:], pattern(4096, 2))
	copy(want[2*sectorSize:], pattern(8*sectorSize, 7))
	if !bytes.Equal(b.read(0, 12), want) {
		t.Fatal("a pass-through write's bytes did not patch every overlapping entry")
	}
}

// parseImage parses a dump image, or a prefix of one, as recovery would.
func parseImage(t *testing.T, img []byte) parsedDump {
	t.Helper()
	var d parsedDump
	count, payloadLen, ok, err := parseDumpHeader(img[:sectorSize])
	if err != nil || !ok {
		t.Fatalf("header: ok=%v err=%v", ok, err)
	}
	d.had = true
	d.entries, d.torn = parseDumpEntries(img[sectorSize:min(len(img), sectorSize+int(payloadLen))], count)
	return d
}

// TestBufferDumpCoversTheRunInFlight: the power-fail interrupt can land
// while a run is on its way to the log partition, where it may be torn; the
// dump image must carry it, and every entry, in FIFO order.
func TestBufferDumpCoversTheRunInFlight(t *testing.T) {
	b := newBuffer(1 << 20)
	lbas := []int64{100, 0, 8, 300}
	for i, lba := range lbas {
		b.insert(lba, pattern(4096, byte(i)), 0)
	}
	b.startDrain()
	b.nextRun()
	b.runLanded(func(int64, int, uint64) {}) // lba 100 is durable
	if lba, _, _ := b.nextRun(); lba != 0 {
		t.Fatalf("run in flight at %d, want 0", lba)
	}
	img, payloadLen := b.dumpImage()
	if payloadLen != len(lbas)*(entHeadLen+4096) || len(img)%sectorSize != 0 {
		t.Fatalf("image of %d bytes, payload %d", len(img), payloadLen)
	}
	d := parseImage(t, img)
	if d.torn || len(d.entries) != len(lbas) {
		t.Fatalf("dump holds %d of %d entries (torn=%v)", len(d.entries), len(lbas), d.torn)
	}
	for i, e := range d.entries {
		if e.lba != lbas[i] || !bytes.Equal(e.data, pattern(4096, byte(i))) {
			t.Fatalf("dump entry %d is lba %d, want %d with its bytes", i, e.lba, lbas[i])
		}
	}
}

// TestDumpImageTornPrefix cuts the image at every byte past its header: the
// parse is always a prefix of the entries, torn exactly when an entry is
// missing.
func TestDumpImageTornPrefix(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(0, pattern(512, 1), 0)
	b.insert(7, pattern(1024, 2), 0)
	b.insert(3, pattern(512, 3), 0)
	img, payloadLen := b.dumpImage()
	whole := parseImage(t, img)
	for cut := sectorSize; cut <= sectorSize+payloadLen; cut++ {
		d := parseImage(t, img[:cut])
		if d.torn != (len(d.entries) < 3) {
			t.Fatalf("cut at %d: %d entries, torn=%v", cut, len(d.entries), d.torn)
		}
		for i, e := range d.entries {
			if e.lba != whole.entries[i].lba || !bytes.Equal(e.data, whole.entries[i].data) {
				t.Fatalf("cut at %d: entry %d is not the image's", cut, i)
			}
		}
	}
	img[sectorSize+entHeadLen] ^= 1 // the first entry's data: its CRC fails
	if d := parseImage(t, img); !d.torn || len(d.entries) != 0 {
		t.Fatalf("a corrupt first entry parsed as %d entries, torn=%v", len(d.entries), d.torn)
	}
}

func TestDumpHeaderValidation(t *testing.T) {
	b := newBuffer(1 << 20)
	b.insert(0, pattern(512, 1), 0)
	img, _ := b.dumpImage()
	if _, _, ok, err := parseDumpHeader(make([]byte, sectorSize)); ok || err != nil {
		t.Fatalf("a zeroed header: ok=%v err=%v, want no dump and no error", ok, err)
	}
	for _, at := range []int{8, 12, 20} { // version, count, payload length
		h := bytes.Clone(img[:sectorSize])
		h[at] ^= 1
		if _, _, ok, err := parseDumpHeader(h); ok || err == nil {
			t.Fatalf("header with byte %d flipped: ok=%v err=%v, want ErrBadDump", at, ok, err)
		}
	}
}

// TestRecoveryAuthority is the whole table of replicasNeeded: policy ×
// dump state × the dying epoch's failed dump writes.
func TestRecoveryAuthority(t *testing.T) {
	whole := parsedDump{had: true}
	torn := parsedDump{had: true, torn: true}
	none := parsedDump{}
	for _, c := range []struct {
		name     string
		d        parsedDump
		readErr  bool
		failures int
		local    bool // quorum: the local domain is complete, replay no standby
	}{
		{"whole dump", whole, false, 0, true},
		{"whole dump after a failed attempt", whole, false, 1, true},
		{"torn dump", torn, false, 0, false},
		{"nothing buffered", none, false, 0, true},
		{"dump write failed", none, false, 1, false},
		{"zone unreadable", none, true, 0, false},
		{"zone unreadable after a dump", whole, true, 0, false},
	} {
		if replicasNeeded(AckKindLocal, c.d, c.readErr, c.failures) {
			t.Errorf("%s: AckLocal replays the standbys", c.name)
		}
		if !replicasNeeded(AckKindRemoteOnly, c.d, c.readErr, c.failures) {
			t.Errorf("%s: AckRemoteOnly does not replay the standbys", c.name)
		}
		if got := replicasNeeded(AckKindQuorum, c.d, c.readErr, c.failures); got == c.local {
			t.Errorf("%s: AckQuorum replays the standbys = %v, want %v", c.name, got, !c.local)
		}
	}
}
