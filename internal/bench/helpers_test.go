package bench

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestFmtBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{0, "0"},
		{-5, "0"},
		{512, "0 KiB"},
		{64 << 10, "64 KiB"},
		{1 << 20, "1.0 MiB"},
		{(8 << 20) + (1 << 19), "8.5 MiB"},
	} {
		if got := fmtBytes(tc.n); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestBoolTo01(t *testing.T) {
	if boolTo01(true) != 1 || boolTo01(false) != 0 {
		t.Fatal("boolTo01")
	}
}

func TestReportRender(t *testing.T) {
	tb := metrics.NewTable("k", "v")
	tb.AddRow("a", "1")
	rep := newReport("x1", "a title", "a figure", tb)
	rep.Notes = append(rep.Notes, "a note")
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## x1", "a title", "a figure", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	keys := sortedKeys(map[string]float64{"b": 1, "a": 2, "c": 3})
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("sortedKeys = %v", keys)
	}
}

// sortedKeys returns map keys in stable order (for deterministic notes).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
