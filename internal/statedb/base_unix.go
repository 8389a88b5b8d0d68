//go:build unix

package statedb

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// mapMin is the smallest index allocIndex maps. A smaller one — a test's or
// a scenario's few keys — costs the heap little, and mapping it would leave
// off-heap bytes the pacer cannot see piling up between collections.
const mapMin = 64 << 10

// mapped is the bytes of the live bases' mapped indexes.
var mapped atomic.Int64

// allocIndex returns n zeroed bytes for b's index: an anonymous private
// mapping, which a finalizer on b unmaps once b is unreachable, or the heap
// for an index under mapMin or when the mapping fails. The bytes are read
// and written the same way either way.
func allocIndex(b *Base, n int) []byte {
	if n < mapMin {
		return make([]byte, n)
	}
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	mapped.Add(int64(n))
	runtime.SetFinalizer(b, func(*Base) {
		// A failed unmap leaks address space only; there is no caller to tell.
		_ = syscall.Munmap(mem)
		mapped.Add(-int64(n))
	})
	return mem
}
