package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The old generators built keys and rows with fmt.Sprintf and read them back
// with fmt.Sscanf. These tables pin the strconv codec to exactly that
// output, so data written before and after the change is interchangeable.

var codecInts = []int{0, 1, 9, 10, 99, 1000, 29999, -1, -10, -999, 1234567, -7654321, math.MaxInt32, math.MinInt32}

func TestKeysMatchSprintf(t *testing.T) {
	for _, a := range codecInts {
		for _, b := range codecInts {
			for _, c := range []struct{ got, want string }{
				{key("b", a), fmt.Sprintf("b:%d", a)},
				{key("t", a, b), fmt.Sprintf("t:%d:%d", a, b)},
				{key("a", a, b), fmt.Sprintf("a:%d:%d", a, b)},
				{key("w", a), fmt.Sprintf("w:%d", a)},
				{key("d", a, b), fmt.Sprintf("d:%d:%d", a, b)},
				{key("c", a, b, a), fmt.Sprintf("c:%d:%d:%d", a, b, a)},
				{key("i", b), fmt.Sprintf("i:%d", b)},
				{key("s", a, b), fmt.Sprintf("s:%d:%d", a, b)},
				{key("o", a, b, b), fmt.Sprintf("o:%d:%d:%d", a, b, b)},
				{key("ol", a, b, a, b), fmt.Sprintf("ol:%d:%d:%d:%d", a, b, a, b)},
				{key("st", a, b), fmt.Sprintf("st:%d:%d", a, b)},
			} {
				if c.got != c.want {
					t.Fatalf("key %q, fmt built %q", c.got, c.want)
				}
			}
		}
	}
	for _, id := range []uint64{0, 1, 42, 1 << 40} {
		if got, want := key("bh", int(id)), fmt.Sprintf("bh:%d", id); got != want {
			t.Fatalf("key %q, fmt built %q", got, want)
		}
		if got, want := key("h", int(id)), fmt.Sprintf("h:%d", id); got != want {
			t.Fatalf("key %q, fmt built %q", got, want)
		}
	}
}

func TestRowsMatchSprintfAndParseBack(t *testing.T) {
	x := func(n int) string { return strings.Repeat("x", n) }
	for _, pad := range []int{0, 1, 60, 1000} {
		for _, a := range codecInts {
			for _, b := range codecInts {
				for _, c := range []struct {
					got  []byte
					want string
					vals []int
				}{
					{row(pad, a), fmt.Sprintf("%d|%s", a, x(pad)), []int{a}},
					{row(pad, a, b), fmt.Sprintf("%d|%d|%s", a, b, x(pad)), []int{a, b}},
					{row(pad, a, b, 0, b), fmt.Sprintf("%d|%d|0|%d|%s", a, b, b, x(pad)), []int{a, b, 0, b}},
					{row(pad, a, b, a), fmt.Sprintf("%d|%d|%d|%s", a, b, a, x(pad)), []int{a, b, a}},
					{itemRow(a, b, pad), fmt.Sprintf("%d|item-%d|%s", a, b, x(pad)), []int{a}},
				} {
					if string(c.got) != c.want {
						t.Fatalf("row %q, fmt built %q", c.got, c.want)
					}
					// Parse back, and agree with what Sscanf read.
					got := make([]int, len(c.vals))
					ptrs := make([]*int, len(got))
					args := make([]any, len(got))
					old := make([]int, len(got))
					for i := range got {
						ptrs[i], args[i] = &got[i], &old[i]
					}
					if err := parseRow(c.got, ptrs...); err != nil {
						t.Fatalf("parseRow(%q): %v", c.got, err)
					}
					if _, err := fmt.Sscanf(c.want, strings.Repeat("%d|", len(got)), args...); err != nil {
						t.Fatalf("Sscanf(%q): %v", c.want, err)
					}
					for i := range got {
						if got[i] != c.vals[i] || got[i] != old[i] {
							t.Fatalf("row %q field %d: parsed %d, Sscanf %d, wrote %d", c.got, i, got[i], old[i], c.vals[i])
						}
					}
				}
			}
		}
	}
	if got, want := string(row(120)), x(120); got != want {
		t.Fatalf("stress value %q, want %q", got, want)
	}
}

func TestParseRowRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"", "|", "x|", "-|", "12", "12x|", "1|x|"} {
		var a, b int
		if err := parseRow([]byte(bad), &a, &b); err == nil {
			t.Errorf("parseRow(%q) accepted", bad)
		}
	}
	// Fields before the malformed one are stored, as Sscanf did.
	var a, b int
	if err := parseRow([]byte("7|xxxx"), &a, &b); err == nil || a != 7 {
		t.Fatalf("parseRow kept a=%d err=%v, want 7 and an error", a, err)
	}
}

// Rows encoded into a caller's buffer or an instance's scratch are the rows
// row builds, so moving the generators onto them changed no stored byte.
func TestAppendRowAndScratchMatchRow(t *testing.T) {
	var sc scratch
	for _, pad := range []int{0, 1, 60, 1000} {
		for _, a := range codecInts {
			want := string(row(pad, a, -a, 7))
			if got := string(appendRow([]byte("pre"), pad, a, -a, 7)); got != "pre"+want {
				t.Fatalf("appendRow = %q, want %q", got, "pre"+want)
			}
			if got := string(sc.row(pad, a, -a, 7)); got != want {
				t.Fatalf("scratch row = %q, want %q", got, want)
			}
		}
	}
}

// Every entry of every key table is the key key() builds for its ids, and
// ids off a table's grid (0, or past the configured count) get that key too.
func TestKeyTablesMatchKey(t *testing.T) {
	tb := &TPCB{Branches: 3, Tellers: 4, Accounts: 5}
	tb.applyDefaults()
	b := tb.codec()
	tc := &TPCC{Warehouses: 2, Districts: 3, Customers: 4, Items: 5}
	tc.applyDefaults()
	c := tc.codec()
	for pass := 0; pass < 2; pass++ { // the second pass reads memoised entries
		for x := 0; x <= 6; x++ {
			for y := 0; y <= 6; y++ {
				for z := 0; z <= 6; z++ {
					for _, k := range []struct{ got, want string }{
						{b.branch.key(x), key("b", x)},
						{b.teller.key(x, y), key("t", x, y)},
						{b.account.key(x, y), key("a", x, y)},
						{c.warehouse.key(x), key("w", x)},
						{c.district.key(x, y), key("d", x, y)},
						{c.customer.key(x, y, z), key("c", x, y, z)},
						{c.item.key(x), key("i", x)},
						{c.stock.key(x, y), key("s", x, y)},
					} {
						if k.got != k.want {
							t.Fatalf("pass %d: table key %q, key() built %q", pass, k.got, k.want)
						}
					}
				}
			}
		}
	}
}

// Every key a workload builds into its arena is the key key() builds, and a
// key keeps its bytes however many are built after it: 10⁵ more keys roll
// every arena over into new chunks many times.
func TestKeyArenaMatchesKey(t *testing.T) {
	tb, tc, st := (&TPCB{}).codec(), (&TPCC{}).codec(), &Stress{keys: new(arena)}
	type pair struct{ got, want string }
	keys := func(i int) []pair {
		a, b := codecInts[i%len(codecInts)], i
		return []pair{
			{tc.order(a, b, i), key("o", a, b, i)},
			{tc.orderLine(b, a, i, a), key("ol", b, a, i, a)},
			{tc.history(uint64(i)), key("h", i)},
			{tb.history(uint64(i)), key("bh", i)},
			{st.key(a, uint64(i)), key("st", a, i)},
		}
	}
	var first []pair
	for i := 0; i < 1000; i++ {
		first = append(first, keys(i)...)
	}
	for i := 1000; i < 1000+100_000/5; i++ {
		for _, k := range keys(i) {
			if k.got != k.want {
				t.Fatalf("arena key %q, key() built %q", k.got, k.want)
			}
		}
	}
	for _, k := range first {
		if k.got != k.want {
			t.Fatalf("arena key became %q after 10⁵ more keys, was %q", k.got, k.want)
		}
	}
}
