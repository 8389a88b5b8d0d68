// Package core is the maporder fixture corpus: each function is one
// case of the sort-guard check. `// want <analyzer> "substr"` marks a line that must
// produce an unsuppressed diagnostic; `// wantsup` a suppressed one; a
// bare line must stay silent. The harness in fixtures_test.go enforces
// exact agreement both ways.
package core

import "sort"

func flagPlainCollect(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder "range over map"
		keys = append(keys, k)
	}
	return keys // order escapes unsorted
}

func okAppendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okGuardedAppendThenSort(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func flagAppendUsedBeforeSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder "range over map"
		keys = append(keys, k)
	}
	first := keys[0] // order observed before any sort
	_ = first
	sort.Strings(keys)
	return keys
}

func flagCommutativeBody(m map[string]int) (sum int, bits int) {
	for _, v := range m { // want maporder "range over map"
		sum += v // commutes, but only a sort-guard or a directive clears a map range
		bits |= v
	}
	return sum, bits
}

func okLocalDefineThenSort(m map[string][]byte) []string {
	var keys []string
	for k, v := range m {
		n := len(v)
		if n == 0 {
			continue
		}
		keys = append(keys, k+string(v[:min(n, 4)]))
	}
	sort.Strings(keys)
	return keys
}

func flagGuardReadsCollector(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder "range over map"
		if len(keys) < 3 { // which three keys survive depends on visit order
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func flagAppendCallResult(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder "range over map"
		keys = append(keys, label(k)) // label's side effects see visit order
	}
	sort.Strings(keys)
	return keys
}

func label(k string) string { return k }

func flagAppendReadsCollector(m map[string]int) []int {
	var lens []int
	for range m { // want maporder "range over map"
		lens = append(lens, len(lens)) // each value is its visit position
	}
	sort.Ints(lens)
	return lens
}

func flagAssignedRangeKey(m map[string]int) (string, []string) {
	var k string
	var keys []string
	for k = range m { // want maporder "range over map"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return k, keys // k is the last key visited
}

func flagReceiveInBody(m map[string]int, ch chan int) []int {
	var got []int
	for range m { // want maporder "range over map"
		got = append(got, <-ch)
	}
	sort.Ints(got)
	return got
}

func flagOrderDependentAssign(m map[string]int) int {
	last := 0
	for _, v := range m { // want maporder "range over map"
		last = v // plain overwrite: final value depends on visit order
	}
	return last
}

func flagReadAfterWriteAccum(m map[string]int) int {
	best := 0
	for _, v := range m { // want maporder "range over map"
		if v > best { // reads the accumulator another iteration wrote
			best = v
		}
	}
	return best
}

func flagCollidingStore(src map[string]int, last map[int]string) {
	for k, v := range src { // want maporder "range over map"
		last[v] = k // non-unique slot, non-idempotent value: last writer wins
	}
}

func flagCallInBody(m map[string]int) {
	for k := range m { // want maporder "range over map"
		observe(k) // arbitrary call: its side effects see visit order
	}
}

func observe(string) {}

func okSliceRangeIsNotAMap(xs []int) []int {
	var out []int
	for _, v := range xs {
		out = append(out, v)
	}
	return out
}

func suppressedVisit(m map[string]int) {
	//sharp:orderinvariant fixture: reviewed suppression — observe is order-blind in this corpus
	for k := range m { // wantsup maporder "range over map"
		observe(k)
	}
}
