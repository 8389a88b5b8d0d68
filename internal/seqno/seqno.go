// Package seqno defines the sequence numbers that order everything in an
// execute-order-validate blockchain: block numbers, transaction commit
// positions, snapshot identifiers, and the start/end timestamps of the
// paper's transactional model (Definitions 1-5).
//
// A sequence number is a lexicographically ordered pair (Block, Pos).
// A blockchain snapshot taken after block M has sequence number (M+1, 0),
// so that every transaction committed at (M, p), p >= 1 sorts strictly
// before the snapshot that follows block M, and every transaction committed
// in block M+1 sorts strictly after it.
package seqno

import (
	"encoding/binary"
	"fmt"
)

// Seq is a (block, position) sequence number. Position 0 is reserved for
// snapshot identifiers; committed transactions occupy positions >= 1.
type Seq struct {
	Block uint64
	Pos   uint32
}

// Snapshot returns the sequence number of the blockchain snapshot observed
// after block `block` has committed, i.e. (block+1, 0) per Definition 1.
func Snapshot(block uint64) Seq { return Seq{Block: block + 1, Pos: 0} }

// Commit returns the sequence number of the pos-th transaction (1-based)
// in block `block`.
func Commit(block uint64, pos uint32) Seq { return Seq{Block: block, Pos: pos} }

// Compare returns -1, 0 or +1 depending on whether s orders before, equal
// to, or after t in lexicographic order.
func (s Seq) Compare(t Seq) int {
	switch {
	case s.Block < t.Block:
		return -1
	case s.Block > t.Block:
		return 1
	case s.Pos < t.Pos:
		return -1
	case s.Pos > t.Pos:
		return 1
	default:
		return 0
	}
}

// Less reports whether s orders strictly before t.
func (s Seq) Less(t Seq) bool { return s.Compare(t) < 0 }

// IsSnapshot reports whether s denotes a blockchain snapshot (Pos == 0).
func (s Seq) IsSnapshot() bool { return s.Pos == 0 }

// SnapshotBlock returns the block number whose post-commit state a snapshot
// sequence number denotes. It panics if s is not a snapshot sequence.
func (s Seq) SnapshotBlock() uint64 {
	if !s.IsSnapshot() {
		panic(fmt.Sprintf("seqno: %v is not a snapshot sequence", s))
	}
	if s.Block == 0 {
		return 0 // the genesis snapshot denotes the empty pre-genesis state
	}
	return s.Block - 1
}

// String renders the sequence number in the paper's "(block, pos)" notation.
func (s Seq) String() string { return fmt.Sprintf("(%d,%d)", s.Block, s.Pos) }

// encodedLen is the length of the binary encoding produced by AppendTo.
const encodedLen = 12

// AppendTo appends a big-endian, order-preserving binary encoding of s to
// dst. The encoding sorts bytewise exactly as Compare orders sequence
// numbers, which lets ordered key-value stores index by sequence number.
func (s Seq) AppendTo(dst []byte) []byte {
	var buf [encodedLen]byte
	binary.BigEndian.PutUint64(buf[0:8], s.Block)
	binary.BigEndian.PutUint32(buf[8:12], s.Pos)
	return append(dst, buf[:]...)
}

// Bytes returns the order-preserving binary encoding of s.
func (s Seq) Bytes() []byte { return s.AppendTo(nil) }

// FromBytes decodes a sequence number previously encoded with AppendTo.
func FromBytes(b []byte) (Seq, error) {
	if len(b) < encodedLen {
		return Seq{}, fmt.Errorf("seqno: short encoding: %d bytes", len(b))
	}
	return Seq{
		Block: binary.BigEndian.Uint64(b[0:8]),
		Pos:   binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

// EncodedLen returns the number of bytes AppendTo writes.
func EncodedLen() int { return encodedLen }

// Max returns the later of s and t.
func Max(s, t Seq) Seq {
	if s.Less(t) {
		return t
	}
	return s
}

// Min returns the earlier of s and t.
func Min(s, t Seq) Seq {
	if t.Less(s) {
		return t
	}
	return s
}
