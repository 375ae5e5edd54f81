package workload

import (
	"fmt"
	"testing"
)

func TestDomainOfDeterministicAndInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("w:%d", i)
		d := domainOf(key, 4)
		if d < 0 || d >= 4 {
			t.Fatalf("domainOf(%q, 4) = %d, out of range", key, d)
		}
		if again := domainOf(key, 4); again != d {
			t.Fatalf("domainOf(%q, 4) flapped: %d then %d", key, d, again)
		}
	}
}

func TestDomainOfSpreadsKeys(t *testing.T) {
	const n, keys = 8, 4000
	var counts [n]int
	for i := 0; i < keys; i++ {
		counts[domainOf(fmt.Sprintf("acct:%d", i), n)]++
	}
	// FNV-1a over sequential keys should land every domain within a loose
	// factor of the ideal share; a pathological hash would concentrate.
	ideal := keys / n
	for d, c := range counts {
		if c < ideal/2 || c > ideal*2 {
			t.Fatalf("domain %d got %d of %d keys (ideal %d): skewed partition", d, c, keys, ideal)
		}
	}
}

// A clone starts with no encoding state: it neither shares the row scratch
// or key tables of the instance it was copied from, nor another clone's.
func TestSplitClonesShareNoEncodingState(t *testing.T) {
	tc := &TPCC{Warehouses: 4}
	tc.applyDefaults()
	tc.codec().buf.row(0, 1)
	tb := &TPCB{Branches: 4}
	tb.applyDefaults()
	tb.codec().buf.row(0, 1)
	for _, w := range []Workload{tc, tb} {
		ws, err := Split(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ws {
			switch c := c.(type) {
			case *TPCC:
				if c.enc != nil {
					t.Errorf("tpcc clone %d inherited encoding state", i)
				}
			case *TPCB:
				if c.enc != nil {
					t.Errorf("tpcb clone %d inherited encoding state", i)
				}
			}
		}
	}
}
