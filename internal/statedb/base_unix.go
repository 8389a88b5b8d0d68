//go:build unix

package statedb

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// mapMin is the smallest region newRegion maps. A smaller one — a test's or
// a scenario's few keys — costs the heap little, and mapping it would leave
// off-heap bytes the pacer cannot see piling up between collections.
const mapMin = 64 << 10

// mapped is the bytes of the live regions' mappings.
var mapped atomic.Int64

// newRegion returns a region of n zeroed bytes: an anonymous private
// mapping, which a finalizer unmaps once the region is unreachable, or the
// heap for fewer than mapMin bytes or when the mapping fails. The bytes are
// read and written the same way either way.
func newRegion(n int) *region {
	if n < mapMin {
		return heapRegion(n)
	}
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return heapRegion(n)
	}
	mapped.Add(int64(n))
	unmapped := new(atomic.Bool)
	r := &region{mem: mem, unmapped: unmapped}
	runtime.SetFinalizer(r, func(*region) {
		// A failed unmap leaks address space only; there is no caller to tell.
		_ = syscall.Munmap(mem)
		mapped.Add(-int64(n))
		unmapped.Store(true)
	})
	return r
}
