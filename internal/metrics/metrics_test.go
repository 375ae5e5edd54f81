package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 {
		t.Fatal("empty histogram returned nonzero stats")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram("lat")
	for _, d := range []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if got, want := h.Mean(), 22*time.Millisecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram("q")
	// 1..1000 microseconds uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		relErr := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if relErr > 0.05 {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %.3f)", tc.q, got, tc.want, relErr)
		}
	}
}

func TestHistogramQuantileBoundsClamped(t *testing.T) {
	h := NewHistogram("q")
	h.Observe(5 * time.Millisecond)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("clamped quantiles returned zero for non-empty histogram")
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := NewHistogram("neg")
	h.Observe(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation recorded as min=%v max=%v", h.Min(), h.Max())
	}
}

// Property: the quantile of a single-valued histogram is within bucket
// quantisation (~3%) of that value, for any magnitude.
func TestHistogramBucketRoundTripProperty(t *testing.T) {
	prop := func(v uint32) bool {
		d := time.Duration(v)
		h := NewHistogram("p")
		h.Observe(d)
		got := h.Quantile(0.5)
		if d < 64 {
			return got == d || got <= d // tiny values map to exact linear buckets
		}
		relErr := math.Abs(float64(got-d)) / float64(d)
		return relErr <= 1.0/subBuckets+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketLow(bucketIndex(d)) <= d for all d (lower bound really is
// a lower bound) and index is monotone in d.
func TestBucketMonotoneProperty(t *testing.T) {
	prop := func(a, b uint32) bool {
		da, db := time.Duration(a), time.Duration(b)
		ia, ib := bucketIndex(da), bucketIndex(db)
		if bucketLow(ia) > da || bucketLow(ib) > db {
			return false
		}
		if da <= db {
			return ia <= ib
		}
		return ib <= ia
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketLow(bucketIndex(d)) is a lower bound within the ~3%
// (1/subBuckets) relative error the log-linear layout promises, across the
// full magnitude range the histogram covers.
func TestBucketRoundTripRelativeError(t *testing.T) {
	prop := func(raw uint64) bool {
		// Spread raw across all octaves: shift by a pseudo-random amount
		// derived from the value itself.
		d := time.Duration(raw >> (raw % 40))
		if d < 0 {
			d = -d
		}
		low := bucketLow(bucketIndex(d))
		if low > d {
			return false
		}
		if d < subBuckets {
			return low == d // exact in the linear range
		}
		if d >= 1<<(numOctaves+subBucketBits-1) {
			return true // beyond the covered range the index saturates
		}
		relErr := float64(d-low) / float64(d)
		return relErr <= 1.0/subBuckets+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
	// Pin the boundary cases quick.Check may miss.
	for _, d := range []time.Duration{0, 1, subBuckets - 1, subBuckets, subBuckets + 1, math.MaxInt64} {
		low := bucketLow(bucketIndex(d))
		if low > d {
			t.Fatalf("bucketLow(bucketIndex(%d)) = %d > input", d, low)
		}
	}
}

func TestCounter(t *testing.T) {
	c := new(Counter)
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative Add")
		}
	}()
	new(Counter).Add(-1)
}

func TestGaugePeak(t *testing.T) {
	g := new(Gauge)
	g.Add(5)
	g.Add(10)
	g.Add(-12)
	if g.Value() != 3 {
		t.Fatalf("Value = %d", g.Value())
	}
	if g.Peak() != 15 {
		t.Fatalf("Peak = %d", g.Peak())
	}
	g.Set(100)
	if g.Peak() != 100 {
		t.Fatalf("Peak after Set = %d", g.Peak())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("mode", "tps", "p99")
	tb.AddRow("rapilog", "1234.5", "0.9ms")
	tb.AddRow("sync", "400.0", "8.7ms")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "mode") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "rapilog") || !strings.Contains(lines[2], "1234.5") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestTableOverwideRowPanics(t *testing.T) {
	tb := NewTable("k", "v")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on row wider than header")
		}
	}()
	tb.AddRow("b", "2", "extra")
}
