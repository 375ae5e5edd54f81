package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// layerFold is the host-clock layer table: the samples of `go tool pprof
// -traces` outputs (CPU and alloc_space profiles), each charged to the
// innermost repro/internal/<pkg> frame of its stack, so that runtime frames
// (memmove, malloc, map growth) charge the layer that called them. Two rows
// are not layers: "gc" is the background mark workers, "coroswitch" the
// coroutine switches the simulation kernel hands off through. A stack with
// no repository frame is "other"; the profiler's own samples are dropped.
// Besides the pooled CPU column, each CPU profile gets one of its own, its
// rows as shares of its own total: a long run cannot drown a short one.
type layerFold struct {
	cpu, bytes           map[string]float64 // seconds and bytes, by row
	cpuTotal, bytesTotal float64
	profiles             []cpuProfile // in the order folded
}

// cpuProfile is one CPU profile's column.
type cpuProfile struct {
	name  string
	cpu   map[string]float64
	total float64
}

func newLayerFold() *layerFold {
	return &layerFold{cpu: map[string]float64{}, bytes: map[string]float64{}}
}

// addFile folds one -traces output; its "Type:" header says which column
// its samples fill.
func (f *layerFold) addFile(path string) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".txt"), ".cpu")
	if err := f.add(name, file); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// add folds one -traces output read from r; a CPU profile's column is
// headed name.
func (f *layerFold) add(name string, r io.Reader) error {
	var (
		total   *float64 // the column's total; nil until the Type header
		rows    map[string]float64
		own     *cpuProfile // a CPU profile's own column
		samples bool        // past the header
		value   float64
		stack   []string
	)
	flush := func() {
		if len(stack) > 0 && value > 0 {
			if row, ok := layerOf(stack); ok {
				rows[row] += value
				*total += value
				if own != nil {
					own.cpu[row] += value
					own.total += value
				}
			}
		}
		value, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			if total == nil {
				return fmt.Errorf("no cpu or alloc_space Type header before the first sample")
			}
			flush()
			samples = true
		case !samples:
			typ, ok := strings.CutPrefix(line, "Type: ")
			switch {
			case !ok:
			case typ == "cpu":
				total, rows = &f.cpuTotal, f.cpu
				f.profiles = append(f.profiles, cpuProfile{name: name, cpu: map[string]float64{}})
				own = &f.profiles[len(f.profiles)-1]
			case typ == "alloc_space":
				total, rows = &f.bytesTotal, f.bytes
			default:
				return fmt.Errorf("profile type %q, want cpu or alloc_space (pprof -sample_index=alloc_space)", typ)
			}
		case len(fields) == 0 || fields[0] == "bytes:":
			// A memory sample's size-class line.
		case len(stack) == 0:
			v, err := parseValue(fields[0])
			if err != nil {
				return err
			}
			value = v
			if len(fields) > 1 {
				stack = append(stack, fields[1])
			}
		default:
			stack = append(stack, fields[0])
		}
	}
	if samples {
		flush()
	}
	return sc.Err()
}

// layerOf names the row a stack (innermost frame first) is charged to, and
// false for the profiler's own samples.
func layerOf(stack []string) (string, bool) {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime/pprof."):
			return "", false
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"):
			return "gc", true
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.coroswitch") {
			return "coroswitch", true
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if pkg, _, ok := strings.Cut(rest, "."); ok && !strings.Contains(pkg, "/") {
				return pkg, true
			}
		}
	}
	return "other", true
}

// units scales pprof's value labels to seconds (CPU) or bytes.
var units = map[string]float64{
	"": 1, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1, "hrs": 3600,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

// parseValue reads a sample value such as "10ms", "5.23kB" or "0".
func parseValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		i = len(s)
	}
	scale, ok := units[s[i:]]
	v, err := strconv.ParseFloat(s[:i], 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("sample value %q: not a number with a known unit", s)
	}
	return v * scale, nil
}

// table renders the fold, the rows by CPU share and then allocated-bytes
// share, largest first.
func (f *layerFold) table() *metrics.Table {
	var rows []string
	for row := range f.cpu {
		rows = append(rows, row)
	}
	for row := range f.bytes {
		if _, both := f.cpu[row]; !both {
			rows = append(rows, row)
		}
	}
	share := func(v, total float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * v / total
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if f.cpu[a] != f.cpu[b] {
			return f.cpu[a] > f.cpu[b]
		}
		if f.bytes[a] != f.bytes[b] {
			return f.bytes[a] > f.bytes[b]
		}
		return a < b
	})
	header := []string{"layer", "cpu %"}
	for _, pr := range f.profiles {
		header = append(header, pr.name+" %")
	}
	t := metrics.NewTable(append(header, "alloc bytes %")...)
	for _, row := range rows {
		cells := []string{row, fmt.Sprintf("%.1f", share(f.cpu[row], f.cpuTotal))}
		for _, pr := range f.profiles {
			cells = append(cells, fmt.Sprintf("%.1f", share(pr.cpu[row], pr.total)))
		}
		t.AddRow(append(cells, fmt.Sprintf("%.1f", share(f.bytes[row], f.bytesTotal)))...)
	}
	return t
}
