package ledger

import (
	"fmt"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/protocol"
)

// The block codec: the canonical encoding a block travels in
// (docs/transport.md). A chain keeps each transaction as these bytes, so a
// sealed block's frame is spliced from them (Chain.Frame) and equals the
// decoded block's encoding byte for byte.

// AppendBlock appends the canonical encoding of blk — header, transactions,
// and, when present, the sealed validation verdicts — to dst.
func AppendBlock(dst []byte, blk *Block) []byte {
	dst = appendHead(dst, blk.Header, len(blk.Transactions))
	for _, tx := range blk.Transactions {
		// Each transaction is itself length-prefixed so a decoder can skip
		// or bound-check entries without parsing them.
		dst = codec.AppendSizedTransaction(dst, tx)
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
