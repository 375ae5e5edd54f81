package main

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/metrics"
)

// column maps items to one number each.
func column[T any](items []T, f func(T) float64) []float64 {
	xs := make([]float64, len(items))
	for i, it := range items {
		xs[i] = f(it)
	}
	return xs
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func msBetween(from, to time.Time) float64 { return ms(float64(to.Sub(from).Nanoseconds())) }

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// relSpread is (max − min) ÷ median: the spread of a handful of same-seed
// repetitions, as a share of their middle. Zero when fewer than two values
// or a zero median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them (the
// driver's arithmetic). Fewer than two values have no quartiles: both are
// the value itself, or 0.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// fastest is the host-clock estimator: the least disturbed repetition.
// Interference on a shared box only ever adds time, and here it comes in
// bursts of 5–10 s that double it, so the minimum over repetitions spread
// across a longer window is far steadier from run to run than their middle
// (150 back-to-back TPC-B repetitions in groups of ten: quartile distance
// 2.2 % for the minimum, 5.0 % for the lower quartile, 5.8 % for the median).
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// iqrShare is the driver's noise measure: the distance between the first
// and third quartile as a share of the median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// histQuantile returns the q-quantile of h in nanoseconds, interpolated
// inside the histogram bucket that holds it. metrics.Histogram.Quantile
// answers with the bucket's lower bound, which moves in ≈3 % steps (32
// sub-buckets per octave) — too coarse to gate a 5 % bound and identical
// from run to run; the position of the target rank among the bucket's own
// samples recovers the digits in between.
func histQuantile(h *metrics.Histogram, q float64) float64 {
	n := int(h.Count())
	if n == 0 {
		return 0
	}
	target := int(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	low := h.Quantile(q)
	bucketOf := func(rank int) time.Duration { return h.Quantile(float64(rank) / float64(n)) }
	// first and last rank (1-based) whose bucket is low
	first := 1 + sort.Search(target-1, func(i int) bool { return bucketOf(i+1) >= low })
	last := target + sort.Search(n-target, func(i int) bool { return bucketOf(target+i+1) > low })
	frac := (float64(target-first) + 0.5) / float64(last-first+1)
	v := float64(low) + frac*float64(bucketWidth(low))
	return math.Min(math.Max(v, float64(h.Min())), float64(h.Max()))
}

// bucketWidth mirrors metrics.Histogram's log-linear layout: values below
// 32 ns have their own bucket, above that each power-of-two range is cut
// into 32 equal buckets.
func bucketWidth(low time.Duration) time.Duration {
	const subBucketBits = 5
	if low < 1<<subBucketBits {
		return 1
	}
	return 1 << (bits.Len64(uint64(low)) - 1 - subBucketBits)
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }
