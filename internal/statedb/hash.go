package statedb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// liveSum is the state fingerprint: the sum, modulo 2^128, of pairDigest over
// every live (key, value) pair. Addition commutes, so the sum depends on the
// live contents alone and not on the history that produced them, and
// ApplyBlock maintains it one write at a time: subtract the pair a write
// replaces, add the pair it installs.
type liveSum struct{ hi, lo uint64 }

func (s *liveSum) add(d liveSum) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, d.lo, 0)
	s.hi, _ = bits.Add64(s.hi, d.hi, carry)
}

func (s *liveSum) sub(d liveSum) {
	var borrow uint64
	s.lo, borrow = bits.Sub64(s.lo, d.lo, 0)
	s.hi, _ = bits.Sub64(s.hi, d.hi, borrow)
}

func (s liveSum) String() string { return fmt.Sprintf("%016x%016x", s.hi, s.lo) }

// pairDigest hashes one (key, value) pair — the key length-prefixed, so no
// two pairs share an encoding — to 128 bits.
func pairDigest(key string, val []byte) liveSum {
	var stack [128]byte // most pairs fit; append moves a longer one to the heap
	buf := binary.BigEndian.AppendUint32(stack[:0], uint32(len(key)))
	buf = append(append(buf, key...), val...)
	sum := sha256.Sum256(buf)
	return liveSum{hi: binary.BigEndian.Uint64(sum[:8]), lo: binary.BigEndian.Uint64(sum[8:16])}
}
