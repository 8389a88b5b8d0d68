package ledger

import (
	"fmt"
	"slices"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/protocol"
)

// The block codec: the canonical encoding a block travels in
// (docs/transport.md). A chain keeps each block as this frame, spliced from
// its transactions' bytes as it is sealed, so the frame equals the decoded
// block's encoding byte for byte.

// AppendBlock appends the canonical encoding of blk — header, transactions,
// and, when present, the sealed validation verdicts — to dst, growing it
// once.
func AppendBlock(dst []byte, blk *Block) []byte { return appendFrame(dst, blk, nil) }

// appendFrame is AppendBlock with raws[i], when raws is not nil and neither
// is raws[i], spliced in as transaction i's encoding; every other
// transaction is encoded in place.
func appendFrame(dst []byte, blk *Block, raws [][]byte) []byte {
	h := blk.Header
	size := 8 + 4 + len(h.PrevHash) + 4 + len(h.DataHash) + 4 + 1 + 4 + len(blk.Validation) + 4 + len(blk.RescueDigest)
	for i, tx := range blk.Transactions {
		if raws != nil && raws[i] != nil {
			size += 4 + len(raws[i])
		} else {
			size += 4 + codec.TransactionSize(tx)
		}
	}
	dst = appendHead(slices.Grow(dst, size), h, len(blk.Transactions))
	for i, tx := range blk.Transactions {
		// Each transaction is itself length-prefixed so a decoder can skip
		// or bound-check entries without parsing them.
		if raws != nil && raws[i] != nil {
			dst = codec.AppendBytes(dst, raws[i])
		} else {
			dst = codec.AppendSizedTransaction(dst, tx)
		}
	}
	return appendMetadata(dst, blk.Validation, blk.RescueDigest)
}

func appendHead(dst []byte, h Header, txs int) []byte {
	dst = codec.AppendU64(dst, h.Number)
	dst = codec.AppendBytes(dst, h.PrevHash)
	dst = codec.AppendBytes(dst, h.DataHash)
	return codec.AppendU32(dst, uint32(txs))
}

func appendMetadata(dst []byte, validation []protocol.ValidationCode, rescueDigest []byte) []byte {
	if validation == nil {
		dst = codec.AppendBool(dst, false)
	} else {
		dst = codec.AppendBool(dst, true)
		dst = codec.AppendU32(dst, uint32(len(validation)))
		for _, c := range validation {
			dst = codec.AppendU8(dst, uint8(c))
		}
	}
	// The rescue digest is always present (length 0 encodes nil), keeping
	// the encoding canonical: one layout, one byte string per block.
	return codec.AppendBytes(dst, rescueDigest)
}

// DecodeBlock decodes a canonical block encoding. Structural soundness
// (hash linkage, verdict-count agreement) is *not* checked here — a chain's
// Append and a tip's Check enforce it, so a decoded block cannot reach a
// chain without passing the same checks an in-process block does.
func DecodeBlock(b []byte) (*Block, error) {
	d := codec.NewDecoder(b)
	blk := &Block{}
	blk.Header.Number = d.U64()
	blk.Header.PrevHash = d.Bytes()
	blk.Header.DataHash = d.Bytes()
	if n := d.Count(4); n > 0 {
		blk.Transactions = make([]*protocol.Transaction, n)
		for i := range blk.Transactions {
			body := d.Sized()
			if d.Err() != nil {
				break
			}
			tx, err := codec.DecodeTransaction(body)
			if err != nil {
				return nil, fmt.Errorf("block tx %d: %w", i, err)
			}
			blk.Transactions[i] = tx
		}
	}
	if d.Bool() {
		n := d.Count(1)
		blk.Validation = make([]protocol.ValidationCode, n)
		for i := range blk.Validation {
			blk.Validation[i] = protocol.ValidationCode(d.U8())
		}
	}
	blk.RescueDigest = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	return blk, nil
}
