package main

import (
	"math"
	"strings"
	"testing"
)

// TestLayerFoldChargesTheInnermostLayer folds the committed -traces
// samples: a runtime frame charges the repository frame that called it
// (memmove under redo is engine's, a slice made for a scan extent is wal's),
// the kernel's coroutine switches and the GC's mark workers get rows of
// their own, a stack with no repository frame is "other", and the
// profiler's own samples are not counted. Each CPU profile also gets a
// column of its own.
func TestLayerFoldChargesTheInnermostLayer(t *testing.T) {
	f := newLayerFold()
	for _, path := range []string{"testdata/layers-cpu.txt", "testdata/layers-alloc.txt"} {
		if err := f.addFile(path); err != nil {
			t.Fatal(err)
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(f.cpuTotal, 0.090) || !near(f.bytesTotal, 4<<20) {
		t.Fatalf("totals %.3f s CPU, %.0f bytes; want 0.090 s (the profiler's 10 ms dropped), 4 MiB", f.cpuTotal, f.bytesTotal)
	}
	for row, want := range map[string]float64{"engine": 0.030, "wal": 0.020, "coroswitch": 0.020, "gc": 0.010, "other": 0.010} {
		if !near(f.cpu[row], want) {
			t.Errorf("cpu[%s] = %.3f s, want %.3f", row, f.cpu[row], want)
		}
	}
	for row, want := range map[string]float64{"wal": 1 << 20, "pagestore": 2 << 20, "other": 1 << 20} {
		if !near(f.bytes[row], want) {
			t.Errorf("bytes[%s] = %.0f, want %.0f", row, f.bytes[row], want)
		}
	}
	if len(f.cpu) != 5 || len(f.bytes) != 3 {
		t.Errorf("rows: cpu %v, bytes %v", f.cpu, f.bytes)
	}
	// By CPU share, then allocated-bytes share, then name.
	got := f.table().String()
	var order []string
	for _, line := range strings.Split(got, "\n")[2:] {
		if fields := strings.Fields(line); len(fields) == 4 {
			order = append(order, strings.Join(fields, " "))
		}
	}
	want := []string{"engine 33.3 33.3 0.0", "wal 22.2 22.2 25.0", "coroswitch 22.2 22.2 0.0", "other 11.1 11.1 25.0", "gc 11.1 11.1 0.0", "pagestore 0.0 0.0 50.0"}
	if strings.Join(order, "|") != strings.Join(want, "|") {
		t.Errorf("table rows\n%s\nwant %q", got, want)
	}

	// A second, shorter CPU profile gets a column of its own beside the
	// pooled one: each column is shares of its own profile's total.
	if err := f.addFile("testdata/layers-cpu-short.txt"); err != nil {
		t.Fatal(err)
	}
	got = f.table().String()
	lines := strings.Split(got, "\n")
	if h := strings.Join(strings.Fields(lines[0]), " "); h != "layer cpu % layers-cpu % layers-cpu-short % alloc bytes %" {
		t.Errorf("header %q", h)
	}
	order = order[:0]
	for _, line := range lines[2:] {
		if fields := strings.Fields(line); len(fields) == 5 {
			order = append(order, strings.Join(fields, " "))
		}
	}
	want = []string{"engine 30.8 33.3 25.0 0.0", "pagestore 23.1 0.0 75.0 50.0", "wal 15.4 22.2 0.0 25.0",
		"coroswitch 15.4 22.2 0.0 0.0", "other 7.7 11.1 0.0 25.0", "gc 7.7 11.1 0.0 0.0"}
	if strings.Join(order, "|") != strings.Join(want, "|") {
		t.Errorf("table rows with two CPU profiles\n%s\nwant %q", got, want)
	}
}

// TestLayerFoldRefusesWhatItCannotRead: a profile of another sample type, a
// value in an unknown unit and samples before any Type header are errors,
// not a table of zeros.
func TestLayerFoldRefusesWhatItCannotRead(t *testing.T) {
	sep := "-----------+-------------------------------------------------------\n"
	for name, in := range map[string]string{
		"alloc_objects": "Type: alloc_objects\n" + sep + "  12   repro/internal/wal.ScanBlocks\n",
		"unknown unit":  "Type: cpu\n" + sep + "  10parsecs   repro/internal/wal.ScanBlocks\n",
		"no header":     sep + "  10ms   repro/internal/wal.ScanBlocks\n",
	} {
		if err := newLayerFold().add(name, strings.NewReader(in)); err == nil {
			t.Errorf("%s: folded without an error", name)
		}
	}
}
