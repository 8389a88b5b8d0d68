//go:build !unix

package trace

// mapSlots allocates the ring's slots on the heap where there is no mmap.
func mapSlots(_ *Ring, n int) []slot { return make([]slot, n) }
