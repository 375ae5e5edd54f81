package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newTestHDD(t *testing.T, cfg HDDConfig) (*sim.Sim, *HDD) {
	t.Helper()
	s := sim.New(1)
	hw := s.NewDomain("hw")
	return s, NewHDD(s, hw, cfg)
}

func fill(n int, b byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestHDDWriteReadRoundTrip(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	var got []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		if err := d.Write(p, 100, fill(2048, 0xAB), false); err != nil {
			t.Errorf("write: %v", err)
		}
		var err error
		got, err = readN(p, d, 100, 4)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(2048, 0xAB)) {
		t.Fatal("read data mismatch")
	}
}

func TestHDDUnwrittenSectorsReadZero(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	var got []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		got, _ = readN(p, d, 5000, 2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 1024)) {
		t.Fatal("unwritten sectors not zero")
	}
}

func TestHDDSyncWriteCostsMilliseconds(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	var elapsed time.Duration
	s.Spawn(nil, "io", func(p *sim.Proc) {
		start := p.Now()
		// A small random-position synchronous write: seek + rotation.
		if err := d.Write(p, d.Sectors()/2, fill(512, 1), true); err != nil {
			t.Errorf("write: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < time.Millisecond || elapsed > 20*time.Millisecond {
		t.Fatalf("sync write took %v, want single-digit ms", elapsed)
	}
}

func TestHDDSequentialStreamingApproachesTrackBandwidth(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	const totalBytes = 4 << 20
	var elapsed time.Duration
	s.Spawn(nil, "io", func(p *sim.Proc) {
		start := p.Now()
		chunk := fill(64*1024, 7)
		var lba int64
		for written := 0; written < totalBytes; written += len(chunk) {
			if err := d.Write(p, lba, chunk, true); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			lba += int64(len(chunk) / SectorSize)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gotBW := float64(totalBytes) / elapsed.Seconds()
	wantBW := 500 * SectorSize / (time.Minute / 7200).Seconds() // the default drive: a track per rotation
	if gotBW < 0.5*wantBW || gotBW > 1.1*wantBW {
		t.Fatalf("sequential bandwidth %.1f MB/s, model says %.1f MB/s", gotBW/1e6, wantBW/1e6)
	}
}

func TestHDDCachedWriteIsFast(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{WriteCache: true})
	var cached, direct time.Duration
	s.Spawn(nil, "io", func(p *sim.Proc) {
		start := p.Now()
		_ = d.Write(p, 1000, fill(4096, 1), false)
		cached = p.Now().Sub(start)
		start = p.Now()
		_ = d.Write(p, d.Sectors()/2, fill(4096, 2), true)
		direct = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cached >= direct/10 {
		t.Fatalf("cached write %v not ≪ direct write %v", cached, direct)
	}
	if d.Stats().CacheHits.Value() != 1 {
		t.Fatalf("cache hits = %d", d.Stats().CacheHits.Value())
	}
}

func TestHDDReadSeesCachedWrite(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{WriteCache: true})
	var got []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		_ = d.Write(p, 42, fill(512, 0x55), false)
		got, _ = readN(p, d, 42, 1) // before any drain completes
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(512, 0x55)) {
		t.Fatal("read did not observe cached write")
	}
}

func TestHDDFlushDrainsCache(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{WriteCache: true})
	s.Spawn(nil, "io", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			_ = d.Write(p, int64(i*100), fill(1024, byte(i)), false)
		}
		if err := d.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if len(d.cache) != 0 {
			t.Errorf("cache dirty after flush: %d", len(d.cache))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHDDPowerFailLosesCacheButNotMedia(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{WriteCache: true})
	hw2 := s.NewDomain("hw2")
	var afterMedia, afterCache []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		_ = d.Write(p, 10, fill(512, 0x11), true) // on media
		_ = d.Flush(p)
		_ = d.Write(p, 20, fill(512, 0x22), false) // cached only
		d.PowerFail()
		d.PowerOn(hw2)
		afterMedia, _ = readN(p, d, 10, 1)
		afterCache, _ = readN(p, d, 20, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterMedia, fill(512, 0x11)) {
		t.Fatal("media contents lost across power failure")
	}
	if !bytes.Equal(afterCache, make([]byte, 512)) {
		t.Fatal("cached write survived power failure (should be lost)")
	}
}

func TestHDDTornWriteOnKill(t *testing.T) {
	s := sim.New(1)
	hw := s.NewDomain("hw")
	guest := s.NewDomain("guest")
	d := NewHDD(s, hw, HDDConfig{ChunkSectors: 1})
	const nsec = 64
	s.Spawn(guest, "io", func(p *sim.Proc) {
		_ = d.Write(p, 0, fill(nsec*512, 0xEE), true)
	})
	// The write starts streaming immediately (LBA 0 is under the head at
	// t=0) and takes ~1.07ms for 64 sectors; kill mid-transfer.
	s.After(500*time.Microsecond, guest.Kill)
	var prefix, total int
	s.Spawn(nil, "check", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		data, _ := readN(p, d, 0, nsec)
		for i := 0; i < nsec; i++ {
			sector := data[i*512 : (i+1)*512]
			if bytes.Equal(sector, fill(512, 0xEE)) {
				total++
				if total == i+1 {
					prefix++
				}
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total == 0 || total == nsec {
		t.Fatalf("expected a torn write, got %d/%d sectors", total, nsec)
	}
	if prefix != total {
		t.Fatalf("torn write is not a prefix: %d written, %d prefix", total, prefix)
	}
	if d.Stats().TornWrites.Value() != 1 {
		t.Fatalf("torn writes counter = %d", d.Stats().TornWrites.Value())
	}
}

func TestHDDRangeAndAlignmentErrors(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	s.Spawn(nil, "io", func(p *sim.Proc) {
		if err := d.Write(p, d.Sectors(), fill(512, 1), false); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("out-of-range write: %v", err)
		}
		if err := d.Write(p, 0, fill(100, 1), false); !errors.Is(err, ErrMisaligned) {
			t.Errorf("misaligned write: %v", err)
		}
		if _, err := readN(p, d, -1, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative lba read: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHDDPoweredOffErrors(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	s.Spawn(nil, "io", func(p *sim.Proc) {
		d.PowerFail()
		if _, err := readN(p, d, 0, 1); !errors.Is(err, ErrNoPower) {
			t.Errorf("read while off: %v", err)
		}
		if err := d.Write(p, 0, fill(512, 1), false); !errors.Is(err, ErrNoPower) {
			t.Errorf("write while off: %v", err)
		}
		if err := d.Flush(p); !errors.Is(err, ErrNoPower) {
			t.Errorf("flush while off: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: seek time is monotone in distance and bounded by [SeekMin, SeekMax].
func TestHDDSeekMonotoneProperty(t *testing.T) {
	s := sim.New(1)
	d := NewHDD(s, s.NewDomain("hw"), HDDConfig{})
	prop := func(a, b uint16) bool {
		ca := int(a) % hddCylinders
		cb := int(b) % hddCylinders
		st := d.seekTime(0, ca)
		su := d.seekTime(0, cb)
		if ca == 0 && st != 0 {
			return false
		}
		if ca > 0 && (st < hddSeekMin || st > hddSeekMax) {
			return false
		}
		if ca <= cb {
			return st <= su
		}
		return su <= st
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the write cache never exceeds its configured capacity, under
// random write sizes and positions.
func TestHDDCacheBoundProperty(t *testing.T) {
	prop := func(seed int64) bool {
		s := sim.New(seed)
		hw := s.NewDomain("hw")
		d := NewHDD(s, hw, HDDConfig{WriteCache: true, CacheSectors: 64})
		ok := true
		s.Spawn(nil, "io", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				n := 1 + s.Rand().Intn(32)
				lba := int64(s.Rand().Intn(100000))
				_ = d.Write(p, lba, fill(n*512, byte(i)), false)
				if len(d.cache) > 64 {
					ok = false
					return
				}
			}
			_ = d.Flush(p)
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok && len(d.cache) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
	// The seed that exposed the count-vs-claim admission race.
	if !prop(-2713285665034007440) {
		t.Fatal("regression: admission race seed fails again")
	}
}

func TestSSDRoundTripAndLatency(t *testing.T) {
	s := sim.New(1)
	d := NewSSD(s, SSDConfig{})
	var got []byte
	var wLat time.Duration
	s.Spawn(nil, "io", func(p *sim.Proc) {
		start := p.Now()
		if err := d.Write(p, 64, fill(4096, 0x3C), true); err != nil {
			t.Errorf("write: %v", err)
		}
		wLat = p.Now().Sub(start)
		got, _ = readN(p, d, 64, 8)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(4096, 0x3C)) {
		t.Fatal("ssd round trip mismatch")
	}
	if wLat < ssdProgramLatency || wLat > 5*ssdProgramLatency {
		t.Fatalf("page write latency %v, want ~%v", wLat, ssdProgramLatency)
	}
}

func TestMemPersistence(t *testing.T) {
	s := sim.New(1)
	ram := NewMem(s, MemConfig{Name: "ram", Persistent: false})
	nv := NewMem(s, MemConfig{Name: "nvram", Persistent: true})
	var ramGot, nvGot []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		_ = ram.Write(p, 0, fill(512, 1), false)
		_ = nv.Write(p, 0, fill(512, 2), false)
		ram.PowerFail()
		nv.PowerFail()
		ram.PowerOn(nil)
		nv.PowerOn(nil)
		ramGot, _ = readN(p, ram, 0, 1)
		nvGot, _ = readN(p, nv, 0, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ramGot, make([]byte, 512)) {
		t.Fatal("RAM disk survived power failure")
	}
	if !bytes.Equal(nvGot, fill(512, 2)) {
		t.Fatal("NVRAM lost data on power failure")
	}
}

func TestPartitionMappingAndBounds(t *testing.T) {
	s := sim.New(1)
	d := NewMem(s, MemConfig{})
	pt, err := NewPartition(d, "log", 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(d, "bad", d.Sectors()-10, 20); err == nil {
		t.Fatal("oversized partition accepted")
	}
	var direct []byte
	s.Spawn(nil, "io", func(p *sim.Proc) {
		if err := pt.Write(p, 0, fill(512, 0xAA), false); err != nil {
			t.Errorf("partition write: %v", err)
		}
		direct, _ = readN(p, d, 1000, 1)
		if err := pt.Write(p, 100, fill(512, 1), false); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("beyond-partition write: %v", err)
		}
		if _, err := readN(p, pt, 99, 2); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("straddling read: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, fill(512, 0xAA)) {
		t.Fatal("partition write not visible at parent offset")
	}
	if pt.Sectors() != 100 || pt.Parent() != Drive(d) {
		t.Fatal("partition geometry accessors wrong")
	}
}

func TestHDDConcurrentWritersSerializeOnArm(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	var finished [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(nil, "io", func(p *sim.Proc) {
			_ = d.Write(p, int64(i)*d.Sectors()/2, fill(512, byte(i)), true)
			finished[i] = p.Now().Duration()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished[0] == finished[1] {
		t.Fatal("two mechanical writes completed simultaneously (arm not serialised)")
	}
}

func TestHDDStatsAccounting(t *testing.T) {
	s, d := newTestHDD(t, HDDConfig{})
	s.Spawn(nil, "io", func(p *sim.Proc) {
		_ = d.Write(p, 0, fill(1024, 1), true)
		_, _ = readN(p, d, 0, 2)
		_ = d.Flush(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes.Value() != 1 || st.Reads.Value() != 1 {
		t.Fatalf("op counts: w=%d r=%d", st.Writes.Value(), st.Reads.Value())
	}
	if st.SectorsWritten.Value() != 2 || st.SectorsRead.Value() != 2 {
		t.Fatalf("sector counts: w=%d r=%d", st.SectorsWritten.Value(), st.SectorsRead.Value())
	}
	if st.WriteLatency.Count() != 1 || st.ReadLatency.Count() != 1 {
		t.Fatal("latency histograms not recorded")
	}
}

// readN reads nsec sectors at lba into a fresh buffer, cut to what the read
// filled.
func readN(p *sim.Proc, d Device, lba int64, nsec int) ([]byte, error) {
	buf := make([]byte, nsec*SectorSize)
	n, err := d.Read(p, lba, buf)
	return buf[:n], err
}

// TestHDDWorstCaseWriteBoundsTheModel drives the drive into the states
// WorstCaseWrite must cover: a 2 MiB write (a checkpoint's double-write
// batch) holds the arm at the far end of the platter, a small write is
// queued behind it, and a dump-zone write whose image crosses a cylinder
// boundary arrives at instants spread over the hog's first piece. The dump
// is served next, and is durable within the drive's answer, on the default
// drive and on a 3600 rpm, 250-sector-per-track one; the hog still lands.
func TestHDDWorstCaseWriteBoundsTheModel(t *testing.T) {
	for _, cfg := range []HDDConfig{{}, {RPM: 3600, SectorsPerTrack: 250}} {
		s, d := newTestHDD(t, cfg)
		spc := d.sectorsPerCyl()
		zone, err := NewDumpZone(d, "dump", 0, 4*spc)
		if err != nil {
			t.Fatal(err)
		}
		image := fill(int(spc)*SectorSize, 9) // from mid-cylinder: one crossing
		budget := d.WorstCaseWrite(int64(len(image)))
		var worst time.Duration
		for step := 0; step < 16; step++ {
			arrive := time.Duration(step) * d.worstStream(hddHoldSectors) / 16
			var hogDone, smallDone, dumpDone sim.Time
			s.Spawn(nil, "hog", func(p *sim.Proc) {
				_ = d.Write(p, d.Sectors()-4096, fill(4096*SectorSize, 1), true)
				hogDone = p.Now()
			})
			s.Spawn(nil, "small", func(p *sim.Proc) {
				p.Sleep(arrive / 2)
				_ = d.Write(p, d.Sectors()/2, fill(SectorSize, 2), true)
				smallDone = p.Now()
			})
			start := s.Now().Add(arrive + 1)
			s.Spawn(nil, "dump", func(p *sim.Proc) {
				p.Sleep(arrive + 1)
				if err := zone.Write(p, spc/2, image, true); err != nil {
					t.Error(err)
				}
				dumpDone = p.Now()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			took := dumpDone.Sub(start)
			if took > budget {
				t.Fatalf("rpm %d: dump arriving %v into the hog took %v, WorstCaseWrite says %v", d.cfg.RPM, arrive, took, budget)
			}
			if smallDone < dumpDone || hogDone < dumpDone {
				t.Fatalf("rpm %d: dump done at %v, after the queued write (%v) or the hog (%v)", d.cfg.RPM, dumpDone, smallDone, hogDone)
			}
			worst = max(worst, took)
		}
		// The states are the hard ones: the worst of them takes most of the
		// answer (it is short only by where the head and platter happen to be).
		if worst < budget*3/4 {
			t.Errorf("rpm %d: worst dump %v, under 3/4 of WorstCaseWrite %v: the test missed the hard states", d.cfg.RPM, worst, budget)
		}
		t.Logf("rpm %d: worst dump %v of %v", d.cfg.RPM, worst, budget)
	}
}

// TestSSDDumpZoneWriteSkipsTheQueue: every channel busy with a 2 MiB write
// and as many queued behind them; a dump-zone write arriving then is durable
// within the drive's answer, long before the queue drains.
func TestSSDDumpZoneWriteSkipsTheQueue(t *testing.T) {
	s := sim.New(1)
	d := NewSSD(s, SSDConfig{})
	zone, err := NewDumpZone(d, "dump", 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var hogsDone sim.Time
	for i := 0; i < 2*ssdChannels; i++ {
		lba := int64(1<<17 + i*4096)
		s.Spawn(nil, "hog", func(p *sim.Proc) {
			_ = d.Write(p, lba, fill(4096*SectorSize, 1), true)
			hogsDone = max(hogsDone, p.Now())
		})
	}
	image := fill(1<<20, 9)
	var took time.Duration
	s.Spawn(nil, "dump", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		start := p.Now()
		if err := zone.Write(p, 1, image, true); err != nil {
			t.Error(err)
		}
		took = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if budget := d.WorstCaseWrite(int64(len(image))); took > budget || hogsDone.Duration() < 2*budget {
		t.Fatalf("dump took %v, WorstCaseWrite %v; the queue drained at %v", took, budget, hogsDone)
	}
}
