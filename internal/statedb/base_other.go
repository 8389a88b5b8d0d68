//go:build !unix

package statedb

// allocIndex takes b's index from the heap where there is no mmap.
func allocIndex(_ *Base, n int) []byte { return make([]byte, n) }
