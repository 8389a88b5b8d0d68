//go:build unix

package statedb

// MappedBytes is the bytes of the live regions' mappings.
func MappedBytes() int64 { return mapped.Load() }

// ForceFold folds db at once, however few histories it holds.
func ForceFold(db *DB) { forceFold(db) }
