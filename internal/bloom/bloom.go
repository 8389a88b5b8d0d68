// Package bloom implements the bloom filters used by the dependency graph's
// reachability sets (paper Section 4.4).
//
// The filters are tuned for two operations the reordering algorithm performs
// constantly: membership tests (cycle detection probes) and unions
// (propagating ancestor sets along dependency edges, computed as a bitwise OR
// over the underlying bit vectors). False positives are tolerated — they
// translate into preventively aborted transactions, which is safe — but
// false negatives must never occur, since a missed cycle would admit an
// unserializable schedule into the ledger.
package bloom

import (
	"fmt"
	"hash/fnv"
	"math"
	mathbits "math/bits"
)

// Filter is a fixed-size bloom filter over string keys. The zero value is
// not usable; construct filters with New. Filters are not
// safe for concurrent mutation.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	n      uint64 // number of Add calls, for fill-ratio estimation
}

// New returns a filter with the given number of bits (rounded up to a
// multiple of 64) and hash functions. It panics on non-positive arguments,
// since a zero-bit filter silently reports everything present.
func New(nbits uint64, hashes int) *Filter {
	if nbits == 0 || hashes <= 0 {
		panic("bloom: filter requires nbits > 0 and hashes > 0")
	}
	words := (nbits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  words * 64,
		hashes: hashes,
	}
}

// indexes derives the k bit positions for a key with double hashing
// (Kirsch-Mitzenmauer): h_i = h1 + i*h2. Positions are appended to out.
func (f *Filter) indexes(key string, out []uint64) []uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31 // a second, decorrelated 64-bit stream
	h2 |= 1               // keep h2 odd so probes cycle through all bits
	x := h1
	for i := 0; i < f.hashes; i++ {
		out = append(out, x%f.nbits)
		x += h2
	}
	return out
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	var buf [16]uint64
	for _, idx := range f.indexes(key, buf[:0]) {
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.n++
}

// MayContain reports whether key may be present. A false result is
// definitive: the key was never added.
func (f *Filter) MayContain(key string) bool {
	var buf [16]uint64
	for _, idx := range f.indexes(key, buf[:0]) {
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Positions appends key's k bit positions to out. Positions depend only on
// the filter's geometry (bit count, hash count), so positions computed
// against one filter are valid for every filter with identical geometry —
// the dependency graph computes each node's positions once and reuses them
// for every Add and MayContain probe instead of re-hashing the key.
func (f *Filter) Positions(out []uint64, key string) []uint64 {
	return f.indexes(key, out)
}

// AddPositions inserts the key whose positions were precomputed by Positions
// on a filter with identical geometry.
func (f *Filter) AddPositions(pos []uint64) {
	if len(pos) != f.hashes {
		panic(fmt.Sprintf("bloom: AddPositions with %d positions on a %d-hash filter", len(pos), f.hashes))
	}
	for _, idx := range pos {
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.n++
}

// MayContainPositions is MayContain for a key whose positions were
// precomputed by Positions on a filter with identical geometry.
func (f *Filter) MayContainPositions(pos []uint64) bool {
	if len(pos) != f.hashes {
		panic(fmt.Sprintf("bloom: MayContainPositions with %d positions on a %d-hash filter", len(pos), f.hashes))
	}
	for _, idx := range pos {
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Union ORs other into f. Both filters must have identical geometry (bit
// count and hash count); the dependency graph guarantees this by minting all
// reachability filters from one configuration.
func (f *Filter) Union(other *Filter) {
	if other == nil {
		return
	}
	if f.nbits != other.nbits || f.hashes != other.hashes {
		panic(fmt.Sprintf("bloom: union of incompatible filters (%d/%d bits, %d/%d hashes)",
			f.nbits, other.nbits, f.hashes, other.hashes))
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
	f.n += other.n
}

// Reset clears the filter to empty without reallocating.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Clone returns an independent copy of f.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		bits:   make([]uint64, len(f.bits)),
		nbits:  f.nbits,
		hashes: f.hashes,
		n:      f.n,
	}
	copy(c.bits, f.bits)
	return c
}

// ApproxItems returns an upper bound on the number of Add/Union operations
// the filter has absorbed. Unions double-count shared members, which is fine
// for its only use: deciding when a relay epoch should rotate.
func (f *Filter) ApproxItems() uint64 { return f.n }

// FillRatio returns the fraction of set bits, a direct proxy for the
// false-positive rate ((fill)^k).
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.nbits)
}

// EstimatedFalsePositiveRate derives the current false-positive probability
// from the fill ratio.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.hashes))
}

// Bits returns the filter geometry (bit count, hash count).
func (f *Filter) Bits() (nbits uint64, hashes int) { return f.nbits, f.hashes }

func popcount(x uint64) int { return mathbits.OnesCount64(x) }
