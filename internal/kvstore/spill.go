package kvstore

import (
	"fmt"
	"os"
)

// Spill is an append-only scratch file for what a process moves off its
// heap and reads back only now and then: an orderer's cold Raft entries and
// sealed blocks. The file is created at the first Append, in Dir
// (os.TempDir() when empty), and unlinked at once, so nothing is left behind
// however the process ends; it lives until Close or until the Spill is
// collected. Nothing is synced: a Spill is exactly as volatile as the heap it
// relieves.
//
// Appends and Close must be serialized by the caller; ReadAt may run
// concurrently with other reads.
type Spill struct {
	Dir  string
	f    *os.File
	size int64
}

// Append writes p after everything appended before, in one write, and
// returns its offset. A failed write appends nothing: the next Append
// writes at the same offset.
func (s *Spill) Append(p []byte) (int64, error) {
	if s.f == nil {
		f, err := os.CreateTemp(s.Dir, "fabricsharp-spill-*")
		if err != nil {
			return 0, fmt.Errorf("kvstore: spill: %w", err)
		}
		if err := os.Remove(f.Name()); err != nil {
			_ = f.Close()
			return 0, fmt.Errorf("kvstore: spill: %w", err)
		}
		s.f = f
	}
	off := s.size
	if _, err := s.f.WriteAt(p, off); err != nil {
		return 0, fmt.Errorf("kvstore: spill: %w", err)
	}
	s.size += int64(len(p))
	return off, nil
}

// ReadAt reads back the n bytes appended at off into a fresh slice.
func (s *Spill) ReadAt(off, n int64) ([]byte, error) {
	if s.f == nil || off < 0 || off+n > s.size {
		return nil, fmt.Errorf("kvstore: spill: read of %d bytes at %d past its end", n, off)
	}
	b := make([]byte, n)
	if _, err := s.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("kvstore: spill: %w", err)
	}
	return b, nil
}

// Size returns the number of bytes appended.
func (s *Spill) Size() int64 { return s.size }

// Close releases the file; its contents are gone with it.
func (s *Spill) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f, s.size = nil, 0
	return err
}
