//go:build unix

package trace

import (
	"runtime"
	"syscall"
	"unsafe"
)

// mapSlots takes r's n slots from an anonymous private mapping instead of the
// GC heap. Pages fault in as events land on them, and a finalizer on r
// unmaps them once r is unreachable (Ring's methods keep r alive while they
// touch a slot). If the mapping fails the slots come from the heap, as they
// would on a platform without mmap.
func mapSlots(r *Ring, n int) []slot {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(slot{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]slot, n)
	}
	// A failed unmap leaks address space only; there is no caller to tell.
	runtime.SetFinalizer(r, func(*Ring) { _ = syscall.Munmap(mem) })
	return unsafe.Slice((*slot)(unsafe.Pointer(&mem[0])), n)
}
