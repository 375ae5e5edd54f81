package disk

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// run executes fn in a fresh process and drives the simulation to idle.
func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc)) {
	t.Helper()
	s.Spawn(nil, "t", fn)
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// newFaulty wraps a partition named "log" that spans a persistent RAM
// disk, and returns the wrapper and the disk underneath.
func newFaulty(t *testing.T, s *sim.Sim, cfg FaultConfig) (*Faulty, *Mem) {
	t.Helper()
	mem := NewMem(s, MemConfig{Name: "m", Persistent: true})
	part, err := NewPartition(mem, "log", 0, mem.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	return NewFaulty(part, cfg), mem
}

func TestIsTransientClassification(t *testing.T) {
	for _, err := range []error{ErrIO, fmt.Errorf("wrapped: %w", ErrIO)} {
		if !IsTransient(err) {
			t.Errorf("IsTransient(%v) = false, want true", err)
		}
	}
	for _, err := range []error{ErrNoPower, ErrOutOfRange, ErrMisaligned, errors.New("other")} {
		if IsTransient(err) {
			t.Errorf("IsTransient(%v) = true, want false", err)
		}
	}
}

func TestFaultyDeterministicInjection(t *testing.T) {
	sequence := func() []bool {
		s := sim.New(1)
		f, _ := newFaulty(t, s, FaultConfig{Seed: 7})
		f.SetWriteErrorProb(0.5)
		var errs []bool
		run(t, s, func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				errs = append(errs, f.Write(p, int64(i*8), make([]byte, 512), true) != nil)
			}
		})
		return errs
	}
	a, b := sequence(), sequence()
	sawErr, sawOk := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
		sawErr = sawErr || a[i]
		sawOk = sawOk || !a[i]
	}
	if !sawErr || !sawOk {
		t.Fatalf("p=0.5 over 64 requests should mix errors and successes (err=%v ok=%v)", sawErr, sawOk)
	}
}

func TestFaultyInjectedErrorsAreTransientAndLeaveNoData(t *testing.T) {
	s := sim.New(1)
	f, mem := newFaulty(t, s, FaultConfig{Seed: 1})
	f.SetWriteErrorProb(1)
	run(t, s, func(p *sim.Proc) {
		data := []byte{1, 2, 3, 4}
		err := f.Write(p, 0, append(data, make([]byte, 508)...), true)
		if !errors.Is(err, ErrIO) {
			t.Errorf("injected write error = %v, want wrapped ErrIO", err)
		}
		if !IsTransient(err) {
			t.Error("injected error not classified transient")
		}
		// The request was rejected before reaching media.
		got, rerr := readN(p, mem, 0, 1)
		if rerr != nil {
			t.Fatalf("read-back: %v", rerr)
		}
		for _, b := range got[:4] {
			if b != 0 {
				t.Fatal("failed write left bytes on media")
			}
		}
	})
	if v := f.injWrites.Value(); v != 1 {
		t.Fatalf("inject_write_errors = %d, want 1", v)
	}
}

func TestFaultyBadRange(t *testing.T) {
	s := sim.New(1)
	f, _ := newFaulty(t, s, FaultConfig{Seed: 1})
	f.AddBadRange(100, 10, false) // writes fail, reads survive
	run(t, s, func(p *sim.Proc) {
		buf := make([]byte, 512)
		if err := f.Write(p, 105, buf, true); !errors.Is(err, ErrIO) {
			t.Errorf("write into bad range: %v, want ErrIO", err)
		}
		if err := f.Write(p, 110, buf, true); err != nil {
			t.Errorf("write just past bad range: %v", err)
		}
		if _, err := readN(p, f, 105, 1); err != nil {
			t.Errorf("read of write-only bad range: %v", err)
		}
		f.bad = nil // the drive was swapped
		if err := f.Write(p, 105, buf, true); err != nil {
			t.Errorf("write after the swap: %v", err)
		}
		f.AddBadRange(100, 10, true) // now reads fail too
		if _, err := readN(p, f, 109, 4); !errors.Is(err, ErrIO) {
			t.Errorf("read overlapping read-bad range: %v, want ErrIO", err)
		}
	})
	if v := f.injBad.Value(); v != 2 {
		t.Fatalf("inject_bad_range_errors = %d, want 2", v)
	}
}

func TestFaultyLatencyStorm(t *testing.T) {
	s := sim.New(1)
	f, _ := newFaulty(t, s, FaultConfig{Seed: 1})
	var calm, stormy time.Duration
	run(t, s, func(p *sim.Proc) {
		buf := make([]byte, 512)
		start := p.Now()
		if err := f.Write(p, 0, buf, true); err != nil {
			t.Fatal(err)
		}
		calm = p.Now().Sub(start)
		f.SetStorm(true)
		start = p.Now()
		if err := f.Write(p, 8, buf, true); err != nil {
			t.Fatal(err)
		}
		stormy = p.Now().Sub(start)
		f.SetStorm(false)
	})
	if stormy < calm+spikeDelay {
		t.Fatalf("storm write took %v vs calm %v, want +%v spike", stormy, calm, spikeDelay)
	}
	if v := f.injSpikes.Value(); v != 1 {
		t.Fatalf("inject_latency_spikes = %d, want 1", v)
	}
}

// TestFaultyNamesFollowItsPartition: the wrapper's counters and its errors
// carry the partition's name. CI's latency-storm gate reads
// log.flt.inject_latency_spikes from a metrics file by that name.
func TestFaultyNamesFollowItsPartition(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	f, _ := newFaulty(t, s, FaultConfig{Seed: 1, Reg: reg})
	counters := reg.Snapshot().Counters
	for _, want := range []string{
		"log.flt.inject_write_errors",
		"log.flt.inject_latency_spikes",
		"log.flt.inject_bad_range_errors",
	} {
		if _, ok := counters[want]; !ok {
			t.Errorf("registry lacks %s: %v", want, counters)
		}
	}
	f.SetWriteErrorProb(1)
	f.AddBadRange(100, 10, true)
	run(t, s, func(p *sim.Proc) {
		if err := f.Write(p, 0, make([]byte, 512), true); err == nil || !strings.HasSuffix(err.Error(), " on log") {
			t.Errorf("injected write error = %v, want one naming log", err)
		}
		if _, err := readN(p, f, 100, 1); err == nil || !strings.HasSuffix(err.Error(), " on log") {
			t.Errorf("bad-range read error = %v, want one naming log", err)
		}
	})
}
