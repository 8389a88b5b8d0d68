// Package conflict holds the key-overlap partitioning and the worker pool of
// the pipeline's parallel phases. Post-order speculative re-execution
// (internal/reexec) partitions a block: its scratch rule only couples
// transactions that share a key, so the block splits into key-disjoint
// groups that run concurrently without changing any outcome. The
// endorsement checks (validation.PrecheckEndorsements) use the pool alone.
package conflict

import (
	"sync"
	"sync/atomic"

	"fabricsharp/internal/protocol"
)

// Partition groups the included transaction indices by transitive
// read/write key overlap (union-find with path halving). Within a group,
// indices stay in block order, so group-sequential processing observes
// exactly the state a sequential whole-block pass would. Indices for which
// include(i) is false are excluded and constrain nothing.
//
// Reads only couple through keys some included transaction writes: a key
// nobody (included) writes keeps its pre-block value for the whole pass, so
// a hot read-only key (a config record every transaction consults) does not
// collapse the block into one serial group.
func Partition(txs []*protocol.Transaction, include func(i int) bool) [][]int {
	written := map[string]bool{}
	for i, tx := range txs {
		if !include(i) {
			continue
		}
		for _, w := range tx.RWSet.Writes {
			written[w.Key] = true
		}
	}
	parent := make([]int, len(txs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Root at the smaller index so group identity is deterministic.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	keyOwner := map[string]int{}
	claim := func(i int, key string) {
		if o, ok := keyOwner[key]; ok {
			union(o, i)
		} else {
			keyOwner[key] = i
		}
	}
	for i, tx := range txs {
		if !include(i) {
			continue
		}
		for _, r := range tx.RWSet.Reads {
			if written[r.Key] {
				claim(i, r.Key)
			}
		}
		for _, w := range tx.RWSet.Writes {
			claim(i, w.Key)
		}
	}

	byRoot := map[int][]int{}
	var roots []int
	for i := range txs {
		if !include(i) {
			continue
		}
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i) // ascending i: block order
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// ParallelFor runs fn(i) for i in [0, n) on up to `workers` goroutines.
func ParallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
