// Package codec is the canonical binary encoding below the types it
// encodes: the length-prefixed primitives, and the transaction codec that
// the block codec (internal/ledger) and the wire messages (internal/wire)
// are built from. It sits below ledger so that a chain can keep, and a block
// frame can splice, each transaction's canonical bytes without importing
// the transport's framing.
//
// The encoding is canonical: fixed-width big-endian integers, u32
// length-prefixed strings and byte slices, deterministic field order, strict
// boolean bytes (0 or 1 only), and no trailing bytes accepted, so every value
// has exactly one encoding and re-encoding a decoded value reproduces its
// input. Decoding never panics: a Decoder bounds every count by the bytes
// actually remaining and records the first error (docs/transport.md).
package codec

import (
	"encoding/binary"
	"fmt"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU32 appends v big-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendU64 appends v big-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendBool appends v as the byte 1 or 0.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends b with its u32 length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends s with its u32 length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendSeq appends a version: block u64, then position u32.
func appendSeq(dst []byte, s seqno.Seq) []byte {
	dst = AppendU64(dst, s.Block)
	return AppendU32(dst, uint32(s.Pos))
}

// Decoder is a bounds-checked cursor over an input buffer. Every read either
// succeeds or records the first error; subsequent reads are no-ops. Nothing
// here panics on hostile input.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Fail records an error unless one is recorded already.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Err returns the first error recorded.
func (d *Decoder) Err() error { return d.err }

// remaining returns the number of bytes not yet read.
func (d *Decoder) remaining() int { return len(d.buf) - d.off }

// take returns the next n bytes of the input itself, not a copy, capped so
// that appending to them cannot overwrite what follows.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.Fail("truncated: need %d bytes, have %d", n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian u32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian u64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bool reads a strict boolean byte.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("boolean byte not 0 or 1")
		return false
	}
}

// Sized reads a u32 length prefix and returns that many bytes of the input
// itself: a nested record, for a caller that decodes it or keeps it whole.
func (d *Decoder) Sized() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.remaining()) {
		d.Fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return nil
	}
	return d.take(int(n))
}

// Bytes reads a u32 length-prefixed byte slice into a copy. Zero length
// decodes to nil — the canonical form AppendBytes emits for empty slices.
func (d *Decoder) Bytes() []byte {
	b := d.Sized()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32 length-prefixed string.
func (d *Decoder) String() string { return string(d.Sized()) }

// seq reads a version written by appendSeq.
func (d *Decoder) seq() seqno.Seq {
	return seqno.Seq{Block: d.U64(), Pos: d.U32()}
}

// Count reads a u32 element count and bounds it by the bytes remaining given
// a minimum encoded size per element, so a hostile count cannot force a huge
// allocation before truncation is detected.
func (d *Decoder) Count(minElemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if uint64(n) > uint64(d.remaining()/minElemSize) {
		d.Fail("count %d exceeds remaining %d bytes", n, d.remaining())
		return 0
	}
	return int(n)
}

// Finish enforces that the whole input was consumed — trailing garbage would
// break the decode∘encode identity.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", d.remaining())
	}
	return nil
}

// AppendTransaction appends the canonical encoding of tx to dst.
func AppendTransaction(dst []byte, tx *protocol.Transaction) []byte {
	dst = AppendString(dst, string(tx.ID))
	dst = AppendString(dst, tx.ClientID)
	dst = AppendString(dst, tx.Contract)
	dst = AppendString(dst, tx.Function)
	dst = AppendU32(dst, uint32(len(tx.Args)))
	for _, a := range tx.Args {
		dst = AppendString(dst, a)
	}
	dst = AppendU64(dst, tx.SnapshotBlock)
	dst = AppendU32(dst, uint32(len(tx.RWSet.Reads)))
	for _, r := range tx.RWSet.Reads {
		dst = AppendString(dst, r.Key)
		dst = appendSeq(dst, r.Version)
	}
	dst = AppendU32(dst, uint32(len(tx.RWSet.Writes)))
	for _, w := range tx.RWSet.Writes {
		dst = AppendString(dst, w.Key)
		dst = AppendBytes(dst, w.Value)
		dst = AppendBool(dst, w.Delete)
	}
	dst = AppendU32(dst, uint32(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		dst = AppendString(dst, e.EndorserID)
		dst = AppendBytes(dst, e.Signature)
	}
	return dst
}

// TransactionSize returns the length of AppendTransaction's encoding of tx,
// so a buffer that will hold it is sized once.
func TransactionSize(tx *protocol.Transaction) int {
	n := 4*4 + len(tx.ID) + len(tx.ClientID) + len(tx.Contract) + len(tx.Function) + 4
	for _, a := range tx.Args {
		n += 4 + len(a)
	}
	n += 8 + 4 + len(tx.RWSet.Reads)*(4+12)
	for _, r := range tx.RWSet.Reads {
		n += len(r.Key)
	}
	n += 4 + len(tx.RWSet.Writes)*(4+4+1)
	for _, w := range tx.RWSet.Writes {
		n += len(w.Key) + len(w.Value)
	}
	n += 4 + len(tx.Endorsements)*(4+4)
	for _, e := range tx.Endorsements {
		n += len(e.EndorserID) + len(e.Signature)
	}
	return n
}

// AppendSizedTransaction appends tx's encoding with its u32 length prefix,
// encoding in place and back-patching the prefix: a transaction nested in a
// block or an envelope, with no temporary slice.
func AppendSizedTransaction(dst []byte, tx *protocol.Transaction) []byte {
	at := len(dst)
	dst = AppendTransaction(AppendU32(dst, 0), tx)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// ReadTransaction decodes a transaction's fields from d. The caller checks
// d's error and precomputes the key caches once the input is accepted.
func ReadTransaction(d *Decoder) *protocol.Transaction {
	tx := &protocol.Transaction{}
	tx.ID = protocol.TxID(d.String())
	tx.ClientID = d.String()
	tx.Contract = d.String()
	tx.Function = d.String()
	if n := d.Count(4); n > 0 {
		tx.Args = make([]string, n)
		for i := range tx.Args {
			tx.Args[i] = d.String()
		}
	}
	tx.SnapshotBlock = d.U64()
	if n := d.Count(4 + 12); n > 0 {
		tx.RWSet.Reads = make([]protocol.ReadItem, n)
		for i := range tx.RWSet.Reads {
			tx.RWSet.Reads[i] = protocol.ReadItem{Key: d.String(), Version: d.seq()}
		}
	}
	if n := d.Count(4 + 4 + 1); n > 0 {
		tx.RWSet.Writes = make([]protocol.WriteItem, n)
		for i := range tx.RWSet.Writes {
			tx.RWSet.Writes[i] = protocol.WriteItem{Key: d.String(), Value: d.Bytes(), Delete: d.Bool()}
		}
	}
	if n := d.Count(4 + 4); n > 0 {
		tx.Endorsements = make([]protocol.Endorsement, n)
		for i := range tx.Endorsements {
			tx.Endorsements[i] = protocol.Endorsement{EndorserID: d.String(), Signature: d.Bytes()}
		}
	}
	return tx
}

// DecodeTransaction decodes a canonical transaction encoding. The decoded
// transaction shares no memory with b, and its distinct-key caches are
// precomputed (the decode site has exclusive access — the same contract the
// in-process build sites follow), so hot paths downstream share them
// safely.
func DecodeTransaction(b []byte) (*protocol.Transaction, error) {
	d := NewDecoder(b)
	tx := ReadTransaction(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transaction: %w", err)
	}
	tx.RWSet.Precompute()
	return tx, nil
}
