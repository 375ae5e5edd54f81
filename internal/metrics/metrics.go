// Package metrics provides the measurement plumbing shared by the RapiLog
// simulation: latency histograms with percentile queries, counters and
// gauges. All values are plain numbers over virtual
// time; nothing here is concurrency-safe because the simulation kernel runs
// one process at a time.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"
)

// Histogram records durations in log-linear buckets: each power-of-two
// range is split into subBuckets linear buckets, giving bounded relative
// error (~1/subBuckets) from nanoseconds to hours in a fixed-size table.
type Histogram struct {
	name   string
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	subBucketBits = 5 // 32 sub-buckets per octave: <= ~3% relative error
	subBuckets    = 1 << subBucketBits
	numOctaves    = 44 // covers up to ~2^43 ns ≈ 2.4h
	numBuckets    = numOctaves * subBuckets
)

// NewHistogram creates an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{
		name:   name,
		counts: make([]uint64, numBuckets),
		min:    math.MaxInt64,
	}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

func bucketIndex(d time.Duration) int {
	v := uint64(d)
	if v < subBuckets {
		return int(v)
	}
	// Highest set bit determines the octave; the next subBucketBits bits
	// select the linear sub-bucket within it.
	octave := 63 - bits.LeadingZeros64(v)
	shift := octave - subBucketBits
	sub := (v >> uint(shift)) & (subBuckets - 1)
	idx := int(octave-subBucketBits+1)*subBuckets + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket idx, the inverse of
// bucketIndex up to quantisation.
func bucketLow(idx int) time.Duration {
	if idx < subBuckets {
		return time.Duration(idx)
	}
	octave := idx/subBuckets + subBucketBits - 1
	sub := idx % subBuckets
	shift := octave - subBucketBits
	return time.Duration((uint64(1) << uint(octave)) | (uint64(sub) << uint(shift)))
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean observation, or zero if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest observation, or zero if empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Quantile returns the q-quantile (0 <= q <= 1) as the lower bound of the
// bucket containing it, or zero if the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge folds other's observations into h. Every histogram shares the same
// bucket layout, so counts, total, sum and min/max combine exactly:
// quantiles of the merged histogram equal quantiles of the concatenated
// observation streams up to the usual bucket quantisation. This is how
// per-shard latency distributions roll up into one fleet-wide view.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Counter is a monotonically increasing count; the zero value is ready to
// use.
type Counter struct {
	value int64
}

// Add increments by n (n may be any non-negative value).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add negative")
	}
	c.value += n
}

// Inc increments by one.
func (c *Counter) Inc() { c.value++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Gauge is a level that tracks its own high-water mark; the zero value is
// ready to use.
type Gauge struct {
	value int64
	peak  int64
}

// Add moves the level by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	g.value += delta
	if g.value > g.peak {
		g.peak = g.value
	}
}

// Set forces the level.
func (g *Gauge) Set(v int64) {
	g.value = v
	if v > g.peak {
		g.peak = v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.value }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak }

// Table formats aligned columnar output for experiment reports. Columns are
// right-aligned except the first.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row. A row wider than the header is a bug in the report
// code, not data to silently drop — it panics.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("metrics: Table.AddRow got %d cells for %d columns", len(cells), len(t.header)))
	}
	t.rows = append(t.rows, cells)
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
