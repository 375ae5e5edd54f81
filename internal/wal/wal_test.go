package wal

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

func memLog(t *testing.T, seed int64, cfg Config) (*sim.Sim, *disk.Mem, *Log) {
	t.Helper()
	s := sim.New(seed)
	dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 16})
	l, err := New(s, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, l
}

func TestAppendForceScanRoundTrip(t *testing.T) {
	s, dev, l := memLog(t, 1, Config{})
	var want []Record
	s.Spawn(nil, "w", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			payload := []byte(fmt.Sprintf("update-%03d", i))
			lsn, err := l.Append(p, RecUpdate, uint64(i/5), payload)
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			want = append(want, Record{LSN: lsn, TxID: uint64(i / 5), Type: RecUpdate, Payload: payload})
		}
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(2)
	var res scanned
	s2.Spawn(nil, "r", func(p *sim.Proc) {
		var err error
		res, err = scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		if err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		w := want[i]
		if r.LSN != w.LSN || r.TxID != w.TxID || r.Type != w.Type || !bytes.Equal(r.Payload, w.Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, w)
		}
	}
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	if res.EndLSN != l.AppendedLSN() {
		t.Fatalf("EndLSN = %d, want %d", res.EndLSN, l.AppendedLSN())
	}
}

func TestUnforcedRecordsNotOnDisk(t *testing.T) {
	s, dev, l := memLog(t, 1, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		_, _ = l.Append(p, RecUpdate, 1, []byte("volatile"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(2)
	var n int
	s2.Spawn(nil, "r", func(p *sim.Proc) {
		res, _ := scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		n = len(res.Records)
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unforced record visible on disk (%d records)", n)
	}
}

func TestForceIdempotentAndMonotone(t *testing.T) {
	s, _, l := memLog(t, 1, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		lsn, _ := l.Append(p, RecCommit, 1, nil)
		_ = l.Force(p, lsn+1)
		forces := l.Stats().Forces.Value()
		_ = l.Force(p, lsn) // already durable
		if l.Stats().Forces.Value() != forces {
			t.Error("redundant force hit the disk")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitPiggyback(t *testing.T) {
	// Slow device: concurrent committers should share physical forces.
	s := sim.New(1)
	hw := s.NewDomain("hw")
	hdd := disk.NewHDD(s, hw, disk.HDDConfig{})
	part, _ := disk.NewPartition(hdd, "log", 0, 65536)
	l, err := New(s, part, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	done := 0
	for i := 0; i < clients; i++ {
		i := i
		s.Spawn(nil, fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 50 * time.Microsecond)
			lsn, _ := l.Append(p, RecCommit, uint64(i), []byte("commit"))
			if err := l.Force(p, lsn+1); err != nil {
				t.Errorf("force: %v", err)
			}
			done++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != clients {
		t.Fatalf("%d/%d commits completed", done, clients)
	}
	forces := l.Stats().Forces.Value()
	if forces >= clients {
		t.Fatalf("%d physical forces for %d clients: no group commit", forces, clients)
	}
	if l.Stats().ForceWaits.Value() == 0 {
		t.Fatal("no piggybacked committers recorded")
	}
}

func TestCommitDelayWidensBatch(t *testing.T) {
	run := func(delay time.Duration) int64 {
		s := sim.New(1)
		hw := s.NewDomain("hw")
		hdd := disk.NewHDD(s, hw, disk.HDDConfig{})
		part, _ := disk.NewPartition(hdd, "log", 0, 65536)
		l, _ := New(s, part, Config{CommitDelay: delay})
		for i := 0; i < 32; i++ {
			i := i
			s.Spawn(nil, fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * 100 * time.Microsecond)
				lsn, _ := l.Append(p, RecCommit, uint64(i), []byte("x"))
				_ = l.Force(p, lsn+1)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return l.Stats().Forces.Value()
	}
	noDelay := run(0)
	withDelay := run(2 * time.Millisecond)
	if withDelay >= noDelay {
		t.Fatalf("commit_delay did not reduce forces: %d vs %d", withDelay, noDelay)
	}
}

func TestRecordTooBig(t *testing.T) {
	s, _, l := memLog(t, 1, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		if _, err := l.Append(p, RecUpdate, 1, make([]byte, Config{}.MaxPayload()+1)); !errors.Is(err, ErrTooBig) {
			t.Errorf("oversized append: %v", err)
		}
		if _, err := l.Append(p, RecUpdate, 1, make([]byte, Config{}.MaxPayload())); err != nil {
			t.Errorf("max-size append rejected: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatesCleanly(t *testing.T) {
	// Force to an HDD, cutting power mid-force: scan recovers a prefix and
	// flags the tear.
	s := sim.New(3)
	m := power.NewMachine(s, "m0", 2, power.PSUConfig{
		Name: "instant", HoldupMin: time.Microsecond, HoldupMax: time.Microsecond,
		InterruptLatency: time.Microsecond,
	})
	hdd := disk.NewHDD(s, m.HardwareDomain(), disk.HDDConfig{ChunkSectors: 1})
	m.AttachDevice(hdd)
	part, _ := disk.NewPartition(hdd, "log", 0, 65536)
	dom := m.NewDomain("db")
	var forcedBefore int
	s.Spawn(dom, "w", func(p *sim.Proc) {
		l, _ := New(s, part, Config{})
		// Round 1: commit a batch and force it fully.
		for i := 0; i < 20; i++ {
			_, _ = l.Append(p, RecUpdate, 1, bytes.Repeat([]byte{1}, 300))
		}
		_ = l.Force(p, l.AppendedLSN())
		forcedBefore = 20
		// Round 2: more appends; power dies mid-force.
		for i := 0; i < 20; i++ {
			_, _ = l.Append(p, RecUpdate, 2, bytes.Repeat([]byte{2}, 300))
		}
		s.After(200*time.Microsecond, func() { m.CutPower() })
		_ = l.Force(p, l.AppendedLSN())
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Reboot: scan what survived.
	var res, ref scanned
	s2 := sim.New(4)
	s2.Spawn(nil, "r", func(p *sim.Proc) {
		dev := s2AttachMedia(s2, hdd, m)
		res, _ = scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		ref, _ = scanPerBlock(p, dev, Config{}, FirstLSN(Config{}))
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameScan(t, res, ref)
	if len(res.Records) < forcedBefore {
		t.Fatalf("scan lost fully-forced records: %d < %d", len(res.Records), forcedBefore)
	}
	if len(res.Records) >= forcedBefore+20 {
		t.Fatalf("scan returned all %d records despite mid-force power cut", len(res.Records))
	}
	for i, r := range res.Records[:forcedBefore] {
		if r.Payload[0] != 1 {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

// s2AttachMedia re-exposes the HDD media in a fresh simulation after power
// loss: the platter contents survive, the simulation instance does not
// matter to them.
func s2AttachMedia(s2 *sim.Sim, hdd *disk.HDD, m *power.Machine) disk.Device {
	m.RestorePower()
	part, _ := disk.NewPartition(hdd, "log2", 0, 65536)
	return part
}

// scanned is a scan's result with the records it handed over.
type scanned struct {
	ScanResult
	Records []Record
}

// collect returns a visitor that appends every record to res.Records,
// with a copy of its payload: the scan's view is valid only during the
// visit.
func (res *scanned) collect() func(Record) error {
	return func(r Record) error {
		r.Payload = bytes.Clone(r.Payload)
		res.Records = append(res.Records, r)
		return nil
	}
}

// scanAll is ScanBlocks with a visitor that collects every record.
func scanAll(p *sim.Proc, dev disk.Device, cfg Config, fromLSN uint64, limit int) (scanned, error) {
	var res scanned
	var err error
	res.ScanResult, err = ScanBlocks(p, dev, cfg, fromLSN, limit, res.collect())
	return res, err
}

// scanPerBlock is the reference reader Scan must agree with: one device
// read per block, and a second read of each block's successor to judge it.
func scanPerBlock(p *sim.Proc, dev disk.Device, cfg Config, fromLSN uint64) (scanned, error) {
	cfg.applyDefaults()
	var res scanned
	bs := uint64(cfg.BlockSize)
	sectorsPer := cfg.BlockSize / disk.SectorSize
	nBlocks := uint64(dev.Sectors()) / uint64(sectorsPer)
	read := func(seq uint64) ([]byte, error) {
		buf := make([]byte, cfg.BlockSize)
		n, err := dev.Read(p, int64(seq%nBlocks)*int64(sectorsPer), buf)
		return buf[:n], err
	}
	seq, off := fromLSN/bs, max(int(fromLSN%bs), blockHdrLen)
	res.EndLSN = seq*bs + uint64(off)
	data, err := read(seq)
	if err != nil || !blockValid(data, seq) {
		return res, err
	}
	for {
		torn, _ := scanBlock(data, seq, off, &res.ScanResult, res.collect())
		next, err := read(seq + 1)
		if err != nil {
			return res, err
		}
		if !blockValid(next, seq+1) {
			res.Torn = torn
			return res, nil
		}
		data, seq, off = next, seq+1, blockHdrLen
		res.EndLSN = seq*bs + uint64(off)
	}
}

// requireSameScan fails t unless got and want found the same records, end
// and tear.
func requireSameScan(t *testing.T, got, want scanned) {
	t.Helper()
	if got.EndLSN != want.EndLSN || got.Torn != want.Torn || len(got.Records) != len(want.Records) {
		t.Fatalf("scan found %d records to LSN %d (torn %v), reference %d to LSN %d (torn %v)",
			len(got.Records), got.EndLSN, got.Torn, len(want.Records), want.EndLSN, want.Torn)
	}
	for i, r := range got.Records {
		w := want.Records[i]
		if r.LSN != w.LSN || r.TxID != w.TxID || r.Type != w.Type || !bytes.Equal(r.Payload, w.Payload) {
			t.Fatalf("record %d: %+v, reference %+v", i, r, w)
		}
	}
}

// scanCost is what one Scan cost the device and the clock.
type scanCost struct {
	reads, sectors int64
	took           time.Duration
}

// scanBoth scans dev from fromLSN with Scan and then with the reference
// reader, on s, and returns Scan's result and cost, counted on st (the
// counters of the drive under dev). It fails t if a process Scan started in
// its caller's domain outlives the call.
func scanBoth(t *testing.T, s *sim.Sim, dev disk.Device, st *disk.Stats, fromLSN uint64) (res scanned, cost scanCost) {
	t.Helper()
	var want scanned
	s.Spawn(nil, "r", func(p *sim.Proc) {
		r0, s0, t0, live := st.Reads.Value(), st.SectorsRead.Value(), p.Now(), p.Domain().Procs()
		var err error
		if res, err = scanAll(p, dev, Config{}, fromLSN, 0); err != nil {
			t.Errorf("scan: %v", err)
		}
		cost = scanCost{st.Reads.Value() - r0, st.SectorsRead.Value() - s0, p.Now().Sub(t0)}
		if n := p.Domain().Procs(); n != live {
			t.Errorf("%d processes alive after Scan returned, %d before", n, live)
		}
		if want, err = scanPerBlock(p, dev, Config{}, fromLSN); err != nil {
			t.Errorf("reference scan: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameScan(t, res, want)
	return res, cost
}

// exitDev charges every read a VM exit before it reaches the disk, as the
// hypervisor's virtual disk does: a request issued when its predecessor
// completes arrives after the head has passed the next sector.
type exitDev struct{ disk.Device }

func (d exitDev) Read(p *sim.Proc, lba int64, dst []byte) (int, error) {
	p.Sleep(15 * time.Microsecond)
	return d.Device.Read(p, lba, dst)
}

// TestScanStreamsInDoublingExtents: on a rotating disk behind a virtual
// disk, a log of N forced blocks is read in two positionings (the first
// extent is read alone, and the second is requested once it is judged), N
// blocks at track bandwidth, the two extents Scan may read past the end,
// and a rotation plus a track-to-track seek per cylinder crossed. A scan that
// issued its next request only after judging the last one would add most
// of a rotation per request, and one that read block by block a rotation
// per block. An empty log still costs one one-block read, the boot I/O
// every steady-state schedule starts with.
func TestScanStreamsInDoublingExtents(t *testing.T) {
	const (
		bs       = 4096                          // Config's default block size
		cylBytes = 4 * 500 * 512                 // the default HDD: 4 heads × 500 sectors
		rotation = time.Minute / 7200            // the default HDD's spindle
		crossing = rotation + time.Millisecond   // a rotation and a track-to-track seek
		access   = 8*time.Millisecond + rotation // a full-stroke seek and a rotation
		track    = 500 * 512                     // bytes per rotation
	)
	for _, n := range []int{0, 1, 2, 5, 201, 300, 1000} {
		t.Run(fmt.Sprintf("blocks=%d", n), func(t *testing.T) {
			s := sim.New(int64(n))
			hdd := disk.NewHDD(s, s.NewDomain("hw"), disk.HDDConfig{})
			part, _ := disk.NewPartition(hdd, "log", 0, 65536)
			dev := exitDev{part}
			l, err := New(s, dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				s.Spawn(nil, "w", func(p *sim.Proc) {
					// Four 928-byte records fill a block; stop in block n-1.
					for i := 0; l.AppendedLSN() < uint64(n-1)*bs+2000; i++ {
						if _, err := l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
					if err := l.Force(p, l.AppendedLSN()); err != nil {
						t.Errorf("force: %v", err)
					}
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			res, cost := scanBoth(t, s, dev, hdd.Stats(), FirstLSN(Config{}))
			if n == 0 {
				if cost.reads != 1 || cost.sectors != bs/512 || len(res.Records) != 0 {
					t.Fatalf("empty log: %d reads of %d sectors found %d records, want one read of one block",
						cost.reads, cost.sectors, len(res.Records))
				}
				return
			}
			if res.EndLSN != l.AppendedLSN() || res.Torn {
				t.Fatalf("scan ended at LSN %d (torn %v), log at %d", res.EndLSN, res.Torn, l.AppendedLSN())
			}
			span := int64(n)*bs + 2*scanExtentBytes
			transfer := time.Duration(span) * rotation / track
			limit := 2*access + transfer + time.Duration(span/cylBytes+1)*crossing
			if cost.took > limit {
				t.Fatalf("scanning %d blocks took %v in %d reads, want at most %v", n, cost.took, cost.reads, limit)
			}
		})
	}
}

// TestScanFlagsTornRecord: a record with a garbled sector ends the log at
// the record before it and flags the tear. The torn block 2 ends Scan's
// second extent (blocks 1–2), so the tear is confirmed by a successor that
// the next request reads.
func TestScanFlagsTornRecord(t *testing.T) {
	s, dev, l := memLog(t, 15, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		var lsn uint64
		for i := 0; i < 11; i++ { // blocks 0 and 1 full, three records in block 2
			lsn, _ = l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900))
		}
		_ = l.Force(p, l.AppendedLSN())
		// Garble the sector where block 2's second record ends.
		_ = dev.Write(p, int64(lsn-1)/512, bytes.Repeat([]byte{0xEE}, 512), true)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	res, _ := scanBoth(t, s, dev, dev.Stats(), FirstLSN(Config{}))
	if !res.Torn || len(res.Records) != 9 || res.EndLSN != 2*4096+16+928 {
		t.Fatalf("scan found %d records to LSN %d (torn %v), want 9 to LSN %d, torn",
			len(res.Records), res.EndLSN, res.Torn, 2*4096+16+928)
	}
}

// TestScanStopsAtVisitorError: a visitor that refuses a record stops the
// scan there, wherever the record falls in a log of several extents (block
// 0 is the first extent, read alone; block 5 is in the third; block 12 is
// the tail, in the fourth). The scan returns the visitor's error, hands over
// nothing after it, ends at the refused record and leaves no read-ahead
// helper behind.
func TestScanStopsAtVisitorError(t *testing.T) {
	errStop := errors.New("visitor refuses")
	s, dev, l := memLog(t, 16, Config{})
	var lsns []uint64
	s.Spawn(nil, "w", func(p *sim.Proc) {
		// Four 928-byte records to a block: twelve blocks and a part.
		for i := 0; i < 50; i++ {
			lsn, err := l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			lsns = append(lsns, lsn)
		}
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, stopAt := range []int{0, 21, 49} {
		var seen []uint64
		var res ScanResult
		var err error
		s.Spawn(nil, "r", func(p *sim.Proc) {
			live := p.Domain().Procs()
			res, err = ScanBlocks(p, dev, Config{}, FirstLSN(Config{}), 0, func(r Record) error {
				seen = append(seen, r.LSN)
				if len(seen) == stopAt+1 {
					return errStop
				}
				return nil
			})
			if n := p.Domain().Procs(); n != live {
				t.Errorf("stop at record %d: %d processes alive after the scan returned, %d before", stopAt, n, live)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(err, errStop) {
			t.Fatalf("stop at record %d: scan returned %v, want the visitor's error", stopAt, err)
		}
		if len(seen) != stopAt+1 || seen[stopAt] != lsns[stopAt] {
			t.Fatalf("stop at record %d: visitor saw %d records, want %d ending at LSN %d", stopAt, len(seen), stopAt+1, lsns[stopAt])
		}
		if res.EndLSN != lsns[stopAt] {
			t.Fatalf("stop at record %d: scan ended at LSN %d, want the refused record's %d", stopAt, res.EndLSN, lsns[stopAt])
		}
	}
}

// TestScanPoisonsKeptPayloads: a record's payload is the scan's only during
// its visit. Under the netsimcheck build tag a scan poisons each extent
// buffer once its visits are over, and both when it returns, so a visitor
// that keeps payloads instead of copying them finds every one poisoned:
// those in extents the scan recycled and those in the last.
func TestScanPoisonsKeptPayloads(t *testing.T) {
	if !checked {
		t.Skip("poisoning recycled scan buffers is the netsimcheck build's")
	}
	s, dev, l := memLog(t, 16, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		// Four 928-byte records to a block: twelve blocks and a part, five
		// extents.
		for i := 0; i < 50; i++ {
			if _, err := l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	s.Spawn(nil, "r", func(p *sim.Proc) {
		if _, err := ScanBlocks(p, dev, Config{}, FirstLSN(Config{}), 0, func(r Record) error {
			kept = append(kept, r.Payload)
			return nil
		}); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 50 {
		t.Fatalf("scan handed over %d records, want 50", len(kept))
	}
	poison := bytes.Repeat([]byte{0xDB}, 900)
	for i, b := range kept {
		if !bytes.Equal(b, poison) {
			t.Fatalf("payload %d kept past its visit reads %#x…, not poison", i, b[:4])
		}
	}
}

func TestScanRejectsStaleGenerationAfterWrap(t *testing.T) {
	// Fill a tiny log more than once around; scan must return only the
	// current generation, and the same records as the reference reader —
	// wherever the circular wrap falls among Scan's extents.
	for _, appends := range []int{40, 61} {
		t.Run(fmt.Sprintf("appends=%d", appends), func(t *testing.T) {
			s := sim.New(5)
			dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 64}) // 8 blocks
			l, err := New(s, dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			s.Spawn(nil, "w", func(p *sim.Proc) {
				for i := 0; i < appends; i++ {
					if _, err := l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
						t.Errorf("append %d: %v", i, err)
						return
					}
					// Continuously advance the checkpoint horizon so wrap is legal.
					l.SetOldestNeeded(l.AppendedLSN())
					_ = l.Force(p, l.AppendedLSN())
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// Scan from the oldest surviving block boundary.
			startSeq := (l.AppendedLSN()/uint64(4096) + 1) - 8 + 1
			res, _ := scanBoth(t, s, dev, dev.Stats(), startSeq*4096)
			if len(res.Records) == 0 {
				t.Fatal("scan found nothing after wrap")
			}
			for _, r := range res.Records {
				if r.LSN < startSeq*4096 {
					t.Fatalf("scan returned pre-wrap record at LSN %d", r.LSN)
				}
			}
			if res.EndLSN != l.AppendedLSN() {
				t.Fatalf("scan ended at LSN %d, log at %d", res.EndLSN, l.AppendedLSN())
			}
		})
	}
}

func TestLogFullWhenCheckpointStalls(t *testing.T) {
	s := sim.New(7)
	dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 32}) // 4 blocks
	l, err := New(s, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	s.Spawn(nil, "w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if _, err := l.Append(p, RecUpdate, 1, bytes.Repeat([]byte{1}, 900)); err != nil {
				sawFull = errors.Is(err, ErrLogFull)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawFull {
		t.Fatal("log never reported full despite stalled checkpoint horizon")
	}
}

func TestOpenAtResumesTail(t *testing.T) {
	s, dev, l := memLog(t, 8, Config{})
	var endLSN uint64
	s.Spawn(nil, "w", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			_, _ = l.Append(p, RecUpdate, 1, []byte("before-crash"))
		}
		_ = l.Force(p, l.AppendedLSN())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": scan, reopen at the end, append more, force, rescan.
	s2 := sim.New(9)
	var total int
	s2.Spawn(nil, "recover", func(p *sim.Proc) {
		res, err := scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		endLSN = res.EndLSN
		l2, err := OpenAt(p, s2, dev, Config{}, FirstLSN(Config{}), endLSN)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			_, _ = l2.Append(p, RecUpdate, 2, []byte("after-crash"))
		}
		_ = l2.Force(p, l2.AppendedLSN())
		res2, err := scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		if err != nil {
			t.Errorf("rescan: %v", err)
			return
		}
		total = len(res2.Records)
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("after resume, scan found %d records, want 6", total)
	}
}

// TestOpenAtHoldsTheScannedRecords: a log reopened after recovery keeps the
// records its scan replayed until a checkpoint releases them. On a 4-block
// log whose first two blocks hold them, the resumed writer fills blocks 2
// and 3 and is then refused, rather than wrapping onto block 0; a rescan
// from the same start finds every record.
func TestOpenAtHoldsTheScannedRecords(t *testing.T) {
	s := sim.New(10)
	dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 32}) // 4 blocks
	l, err := New(s, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{7}, 900) // four to a block
	var resumed, found int
	s.Spawn(nil, "w", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			_, _ = l.Append(p, RecUpdate, 1, rec)
		}
		_ = l.Force(p, l.AppendedLSN())
		from := FirstLSN(Config{})
		res, err := scanAll(p, dev, Config{}, from, 0)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		l2, err := OpenAt(p, s, dev, Config{}, from, res.EndLSN)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for ; ; resumed++ {
			if _, err := l2.Append(p, RecUpdate, 2, rec); err != nil {
				if !errors.Is(err, ErrLogFull) {
					t.Errorf("append: %v", err)
				}
				break
			}
			_ = l2.Force(p, l2.AppendedLSN())
		}
		res2, err := scanAll(p, dev, Config{}, from, 0)
		if err != nil {
			t.Errorf("rescan: %v", err)
			return
		}
		found = len(res2.Records)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 8 || found != 16 {
		t.Fatalf("resumed writer appended %d records and a rescan found %d; want 8 and all 16", resumed, found)
	}
}

// Property: whatever sequence of appends and forces happens, Scan returns
// exactly the records at or below the last force, in order, with intact
// payloads.
func TestScanReturnsForcedPrefixProperty(t *testing.T) {
	prop := func(seed int64, ops uint8) bool {
		s := sim.New(seed)
		dev := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 16})
		l, err := New(s, dev, Config{})
		if err != nil {
			return false
		}
		type rec struct {
			lsn     uint64
			payload []byte
		}
		var appended []rec
		var forcedCount int
		nOps := int(ops%60) + 5
		s.Spawn(nil, "w", func(p *sim.Proc) {
			for i := 0; i < nOps; i++ {
				if s.Rand().Intn(4) == 0 && len(appended) > 0 {
					_ = l.Force(p, l.AppendedLSN())
					forcedCount = len(appended)
				} else {
					n := 1 + s.Rand().Intn(500)
					payload := bytes.Repeat([]byte{byte(i)}, n)
					lsn, err := l.Append(p, RecUpdate, uint64(i), payload)
					if err != nil {
						return
					}
					appended = append(appended, rec{lsn, payload})
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		var res scanned
		s2 := sim.New(seed + 1)
		s2.Spawn(nil, "r", func(p *sim.Proc) {
			res, _ = scanAll(p, dev, Config{}, FirstLSN(Config{}), 0)
		})
		if err := s2.Run(); err != nil {
			return false
		}
		if len(res.Records) != forcedCount {
			t.Logf("seed=%d: scanned %d, forced %d", seed, len(res.Records), forcedCount)
			return false
		}
		for i, r := range res.Records {
			if r.LSN != appended[i].lsn || !bytes.Equal(r.Payload, appended[i].payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// flakyDev fails the first failN writes with a wrapped transient error, then
// behaves normally.
type flakyDev struct {
	disk.Device
	failN int
}

func (f *flakyDev) Write(p *sim.Proc, lba int64, data []byte, fua bool) error {
	if f.failN > 0 {
		f.failN--
		return fmt.Errorf("flaky: %w", disk.ErrIO)
	}
	return f.Device.Write(p, lba, data, fua)
}

// TestForceRetriesTransientMediaError: a force whose block write fails
// transiently inside the retry budget must still succeed, count its retries,
// and leave the records recoverable.
func TestForceRetriesTransientMediaError(t *testing.T) {
	s := sim.New(11)
	mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 16})
	fd := &flakyDev{Device: mem, failN: 2}
	l, err := New(s, fd, Config{}) // default budget: 3 attempts
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives-the-flap")
	s.Spawn(nil, "w", func(p *sim.Proc) {
		if _, err := l.Append(p, RecUpdate, 1, payload); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force with transient errors: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := l.Stats().ForceRetries.Value(); v != 2 {
		t.Fatalf("force retries = %d, want 2", v)
	}
	if v := l.Stats().ForceErrors.Value(); v != 0 {
		t.Fatalf("force errors = %d, want 0", v)
	}
	var res scanned
	s2 := sim.New(12)
	s2.Spawn(nil, "r", func(p *sim.Proc) {
		res, _ = scanAll(p, mem, Config{}, FirstLSN(Config{}), 0)
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || !bytes.Equal(res.Records[0].Payload, payload) {
		t.Fatal("forced record not recoverable after retried write")
	}
}

// TestForceSurrendersAfterRetryBudget: when the fault outlives the budget the
// force must return an error that still carries the disk sentinel (so the
// engine can classify it), and a later force must land the requeued block.
func TestForceSurrendersAfterRetryBudget(t *testing.T) {
	s := sim.New(13)
	mem := disk.NewMem(s, disk.MemConfig{Name: "log", Persistent: true, Capacity: 1 << 16})
	fd := &flakyDev{Device: mem, failN: 10} // longer than the 3-attempt budget
	l, err := New(s, fd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("lands-on-the-second-force")
	s.Spawn(nil, "w", func(p *sim.Proc) {
		if _, err := l.Append(p, RecUpdate, 1, payload); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		err := l.Force(p, l.AppendedLSN())
		if err == nil {
			t.Error("force succeeded with the fault still raging")
			return
		}
		if !errors.Is(err, disk.ErrIO) {
			t.Errorf("force error %v does not expose the disk sentinel", err)
		}
		fd.failN = 0 // fault clears
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force after fault cleared: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := l.Stats().ForceErrors.Value(); v != 1 {
		t.Fatalf("force errors = %d, want 1", v)
	}
	var res scanned
	s2 := sim.New(14)
	s2.Spawn(nil, "r", func(p *sim.Proc) {
		res, _ = scanAll(p, mem, Config{}, FirstLSN(Config{}), 0)
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || !bytes.Equal(res.Records[0].Payload, payload) {
		t.Fatal("record not recoverable after the fault cleared")
	}
}

// TestScanBlocksReadsNoFurtherThanItsLimit: a scan that knows how many
// blocks the log can hold past its start reads those in one request and no
// more, and finds what a full scan finds in them; a limit past the end
// finds the whole log.
func TestScanBlocksReadsNoFurtherThanItsLimit(t *testing.T) {
	const bs = 4096
	s, dev, l := memLog(t, 7, Config{})
	s.Spawn(nil, "w", func(p *sim.Proc) {
		// Four 928-byte records to a block: twelve blocks and a part.
		for i := 0; i < 50; i++ {
			if _, err := l.Append(p, RecUpdate, uint64(i), bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		if err := l.Force(p, l.AppendedLSN()); err != nil {
			t.Errorf("force: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	from := uint64(3*bs + blockHdrLen + 928) // the second record of block 3
	full, _ := scanBoth(t, s, dev, dev.Stats(), from)
	for _, limit := range []int{1, 4, 10, 20} {
		var res scanned
		var reads, sectors int64
		s.Spawn(nil, "r", func(p *sim.Proc) {
			st := dev.Stats()
			r0, s0 := st.Reads.Value(), st.SectorsRead.Value()
			var err error
			if res, err = scanAll(p, dev, Config{}, from, limit); err != nil {
				t.Errorf("scan: %v", err)
			}
			reads, sectors = st.Reads.Value()-r0, st.SectorsRead.Value()-s0
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var want []Record
		for _, r := range full.Records {
			if r.LSN < uint64(3+limit)*bs {
				want = append(want, r)
			}
		}
		if len(res.Records) != len(want) || (len(want) > 0 && res.Records[len(want)-1].LSN != want[len(want)-1].LSN) {
			t.Fatalf("limit %d: %d records, want the full scan's %d in those blocks", limit, len(res.Records), len(want))
		}
		if reads != 1 || sectors > int64(limit*bs/512) {
			t.Fatalf("limit %d: %d reads of %d sectors, want one read of at most %d", limit, reads, sectors, limit*bs/512)
		}
		if limit == 20 && res.EndLSN != full.EndLSN {
			t.Fatalf("limit past the end: scan ended at %d, the log at %d", res.EndLSN, full.EndLSN)
		}
	}
}
