package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
)

// Write-absorption behaviour: repeated writes to the same block supersede
// the buffered copy instead of queueing — the optimisation that keeps WAL
// tail rewrites from drain-limiting throughput.

func TestAbsorptionSupersedesPendingWrite(t *testing.T) {
	r := newRig(t, 20, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 64, pattern(4096, 1), false)
		_ = r.l.Write(p, 64, pattern(4096, 2), false) // absorbed
		_ = r.l.Write(p, 64, pattern(4096, 3), false) // absorbed
	})
	var onMedia []byte
	r.s.Spawn(nil, "check", func(p *sim.Proc) {
		p.Sleep(time.Second)
		onMedia, _ = readN(p, r.logPart, 64, 8)
	})
	if err := r.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.l.RapiStats()
	// The first rewrite may race the drain (its target entry can already
	// be in a drain batch), but at least one of the two must absorb.
	if st.Absorbed.Value() < 1 {
		t.Fatalf("absorbed = %d, want ≥ 1", st.Absorbed.Value())
	}
	if !bytes.Equal(onMedia, pattern(4096, 3)) {
		t.Fatal("media does not hold the newest version")
	}
	// Never three separate copies in the buffer.
	if st.Occupancy.Peak() > 2*4096 {
		t.Fatalf("peak occupancy %d, want ≤ 8192", st.Occupancy.Peak())
	}
}

func TestAbsorptionSurvivesPowerCut(t *testing.T) {
	// The absorbed (newest) version must be what the dump carries.
	r := newRig(t, 22, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		_ = r.l.Write(p, 16, pattern(4096, 1), false)
		_ = r.l.Write(p, 16, pattern(4096, 7), false) // absorbed
		r.m.CutPower()
		p.Sleep(time.Hour)
	})
	var got []byte
	r.s.Spawn(nil, "op", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.m.RestorePower()
		boot := r.s.NewDomain("boot")
		r.s.Spawn(boot, "recover", func(p *sim.Proc) {
			if _, err := r.l.Recover(p, nil); err != nil {
				t.Errorf("recover: %v", err)
				return
			}
			got, _ = readN(p, r.logPart, 16, 8)
		})
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(4096, 7)) {
		t.Fatal("dump recovery did not restore the absorbed (newest) version")
	}
}

func TestReadBeyondRangeFails(t *testing.T) {
	r := newRig(t, 25, power.PSUMeasured, Config{})
	r.s.Spawn(r.guest, "db", func(p *sim.Proc) {
		if _, err := readN(p, r.l, r.l.Sectors(), 1); err == nil {
			t.Error("out-of-range read accepted")
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOnCleanZoneIsNoop(t *testing.T) {
	r := newRig(t, 26, power.PSUMeasured, Config{})
	r.s.Spawn(nil, "recover", func(p *sim.Proc) {
		rep, err := r.l.Recover(p, nil)
		if err != nil || rep.HadDump || rep.Entries != 0 {
			t.Errorf("clean-zone recover: %+v %v", rep, err)
		}
	})
	if err := r.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}
