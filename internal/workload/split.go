package workload

import (
	"fmt"
	"hash/fnv"
)

// Split gives each of a fleet's n log domains its own copy of w. TPC-C and
// TPC-B are hash-partitioned: domain i's clone owns exactly the warehouses or
// branches whose key hashes to i, so the clones load disjoint rows and no
// transaction crosses a domain boundary. Stress gets a fresh instance per
// domain with the same ValueSize, since its per-client sequence numbers must
// not be shared. A clone shares no encoding state (row scratch, key tables,
// key arena) with w or another clone. Any other workload cannot be split
// and is an error.
func Split(w Workload, n int) ([]Workload, error) {
	switch w := w.(type) {
	case *TPCC:
		base := *w
		base.applyDefaults()
		base.enc = nil
		return partition(n, base.Warehouses, "w", func(owned []int) Workload {
			c := base
			c.Owned = owned
			return &c
		})
	case *TPCB:
		base := *w
		base.applyDefaults()
		base.enc = nil
		return partition(n, base.Branches, "b", func(owned []int) Workload {
			c := base
			c.Owned = owned
			return &c
		})
	case *Stress:
		ws := make([]Workload, n)
		for i := range ws {
			ws[i] = &Stress{ValueSize: w.ValueSize}
		}
		return ws, nil
	}
	return nil, fmt.Errorf("workload: %T (%q) cannot be split across log domains", w, w.Name())
}

// partition assigns entity ids 1..ids to n domains by the hash of their key
// (key(prefix, id): the warehouse or branch row's own key), then
// rebalances so that no domain is left empty — an empty Owned set would
// silently make that domain's clone drive everything — by moving an id from
// the fullest domain (deterministic, still disjoint). It returns one clone
// per domain.
func partition(n, ids int, prefix string, clone func(owned []int) Workload) ([]Workload, error) {
	if ids < n {
		return nil, fmt.Errorf("workload: %d entities cannot cover %d log domains", ids, n)
	}
	owned := make([][]int, n)
	for id := 1; id <= ids; id++ {
		i := domainOf(key(prefix, id), n)
		owned[i] = append(owned[i], id)
	}
	for i := range owned {
		for len(owned[i]) == 0 {
			donor, most := -1, 1
			for j := range owned {
				if len(owned[j]) > most {
					donor, most = j, len(owned[j])
				}
			}
			// ids >= n guarantees a donor with at least two entities.
			last := len(owned[donor]) - 1
			owned[i] = append(owned[i], owned[donor][last])
			owned[donor] = owned[donor][:last]
		}
	}
	ws := make([]Workload, n)
	for i := range ws {
		ws[i] = clone(owned[i])
	}
	return ws, nil
}

// domainOf maps a key to one of n log domains by FNV-1a hash: pure data, so
// every caller agrees on ownership without coordination.
func domainOf(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}
