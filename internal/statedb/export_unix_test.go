//go:build unix

package statedb

// MappedBytes is the bytes of the live bases' mapped indexes.
func MappedBytes() int64 { return mapped.Load() }
