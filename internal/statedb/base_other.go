//go:build !unix

package statedb

// newRegion takes a region from the heap where there is no mmap.
func newRegion(n int) *region { return heapRegion(n) }
