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
