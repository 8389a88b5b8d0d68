// Package ledger implements the blockchain itself: blocks of ordered
// transactions chained by header hashes, a merkle accumulator over the
// transaction digests, and the stored form of a block (Record, NewChain).
//
// The paper's safety argument (Section 3.5) leans on four properties of this
// layer — hash chain integrity, no skipping, no creation, agreement — which
// the chain enforces structurally: a block only appends if its number is
// next and its PrevHash matches the current tip, and the data hash binds the
// exact transaction sequence the (replicated, deterministic) reordering
// emitted.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
)

// Header is a block header. Hash(Header_n) == Block_{n+1}.PrevHash.
type Header struct {
	Number   uint64
	PrevHash []byte
	DataHash []byte
}

// Block is a sealed batch of ordered transactions plus the validation codes
// assigned by the validation phase (Fabric keeps these as block metadata so
// that raw ledger throughput counts aborted transactions too — exactly the
// raw-vs-effective distinction of Figure 1).
type Block struct {
	Header       Header
	Transactions []*protocol.Transaction
	Validation   []protocol.ValidationCode
	// RescueDigest commits to the post-order rescue outcome
	// (reexec.WriteSetDigest over the Rescued positions' re-executed write
	// sets); nil when no transaction was rescued. Like Validation it is
	// metadata, not part of DataHash: every replica re-derives it
	// deterministically and byte-asserts against the sealed value.
	RescueDigest []byte
}

// Hash returns the block's header hash.
func (b *Block) Hash() []byte { return HashHeader(b.Header) }

// HashHeader hashes a header deterministically.
func HashHeader(h Header) []byte {
	sum := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], h.Number)
	sum.Write(n[:])
	sum.Write(h.PrevHash)
	sum.Write(h.DataHash)
	return sum.Sum(nil)
}

// DataHash computes the merkle root over the transactions' digests. An empty
// block hashes to the digest of the empty string, keeping genesis well
// defined.
func DataHash(txs []*protocol.Transaction) []byte {
	if len(txs) == 0 {
		empty := sha256.Sum256(nil)
		return empty[:]
	}
	level := make([][]byte, len(txs))
	for i, tx := range txs {
		level[i] = tx.Digest()
	}
	return merkleRoot(level)
}

func merkleRoot(level [][]byte) []byte {
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				// Odd node promotes unchanged (Bitcoin duplicates; promotion
				// avoids the duplication ambiguity).
				next = append(next, level[i])
				continue
			}
			h := sha256.New()
			h.Write(level[i])
			h.Write(level[i+1])
			next = append(next, h.Sum(nil))
		}
		level = next
	}
	return level[0]
}

// ValidCount returns the number of transactions that validated cleanly
// (code Valid; rescued transactions are counted by CommittedCount).
func (b *Block) ValidCount() int {
	n := 0
	for _, c := range b.Validation {
		if c == protocol.Valid {
			n++
		}
	}
	return n
}

// CommittedCount returns the number of transactions whose effects reached
// the state database: valid plus rescued.
func (b *Block) CommittedCount() int {
	n := 0
	for _, c := range b.Validation {
		if c.Committed() {
			n++
		}
	}
	return n
}

// Chain is an append-only, in-memory hash chain of blocks. A block is
// appended complete with its verdicts and never changed afterwards. Safe
// for concurrent use.
type Chain struct {
	mu     sync.RWMutex
	blocks []*Block
	// committed tallies the Committed verdicts over every block, so status
	// probes read one number instead of walking verdict slices.
	committed uint64
}

const blockKeyPrefix = "b/"

func blockKey(n uint64) []byte {
	k := []byte(blockKeyPrefix)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	return append(k, b[:]...)
}

// Record encodes blk as the store entry NewChain loads. The chain never
// writes: the owner of the store commits the record in the same batch as
// whatever else must land with the block (a peer: its state writes and
// height).
func Record(blk *Block) kvstore.BatchOp {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blk); err != nil {
		panic(fmt.Sprintf("ledger: encode block %d: %v", blk.Header.Number, err)) // only an unencodable field type fails
	}
	return kvstore.BatchOp{Key: blockKey(blk.Header.Number), Value: buf.Bytes()}
}

// NewChain creates a chain, loading the blocks a non-nil store holds
// (verifying linkage). The store is only read.
func NewChain(store *kvstore.DB) (*Chain, error) {
	c := &Chain{}
	if store == nil {
		return c, nil
	}
	// Keys are big-endian block numbers, so scan order is block order.
	err := store.Scan([]byte(blockKeyPrefix), func(_, rec []byte) error {
		var blk Block
		if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&blk); err != nil {
			return fmt.Errorf("ledger: decode block: %w", err)
		}
		c.blocks = append(c.blocks, &blk)
		c.committed += uint64(blk.CommittedCount())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.verifyLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Height returns the number of the last block, and whether any block exists.
func (c *Chain) Height() (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return 0, false
	}
	return c.blocks[len(c.blocks)-1].Header.Number, true
}

// Len returns the number of blocks.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// Get returns block n.
func (c *Chain) Get(n uint64) (*Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return nil, false
	}
	first := c.blocks[0].Header.Number
	idx := int(n) - int(first)
	if idx < 0 || idx >= len(c.blocks) {
		return nil, false
	}
	return c.blocks[idx], true
}

// Tip returns the last block.
func (c *Chain) Tip() (*Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return nil, false
	}
	return c.blocks[len(c.blocks)-1], true
}

// Seal assembles a block from ordered transactions, linking it to the
// current tip, and appends it. It returns the sealed block.
func (c *Chain) Seal(txs []*protocol.Transaction, validation []protocol.ValidationCode) (*Block, error) {
	return c.SealRescued(txs, validation, nil)
}

// SealRescued is Seal plus the post-order rescue digest committed alongside
// the validation codes (nil when no transaction was rescued).
func (c *Chain) SealRescued(txs []*protocol.Transaction, validation []protocol.ValidationCode, rescueDigest []byte) (*Block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var number uint64 = 1
	var prev []byte
	if len(c.blocks) > 0 {
		tip := c.blocks[len(c.blocks)-1]
		number = tip.Header.Number + 1
		prev = HashHeader(tip.Header)
	} else {
		genesis := sha256.Sum256([]byte("fabricsharp-genesis"))
		prev = genesis[:]
	}
	blk := &Block{
		Header:       Header{Number: number, PrevHash: prev, DataHash: DataHash(txs)},
		Transactions: txs,
		Validation:   validation,
		RescueDigest: rescueDigest,
	}
	if err := checkVerdicts(blk); err != nil {
		return nil, err
	}
	c.pushLocked(blk)
	return blk, nil
}

// Check reports whether blk would extend the chain: its number is next, its
// PrevHash is the tip's hash, its DataHash binds its transactions and its
// verdicts, if any, number one per transaction. A committer checks before
// it validates and persists, and appends after.
func (c *Chain) Check(blk *Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkLocked(blk)
}

// Append adds an externally assembled block, enforcing linkage (agreement,
// no skipping) before accepting it.
func (c *Chain) Append(blk *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkLocked(blk); err != nil {
		return err
	}
	c.pushLocked(blk)
	return nil
}

func (c *Chain) checkLocked(blk *Block) error {
	if len(c.blocks) > 0 {
		tip := c.blocks[len(c.blocks)-1]
		if blk.Header.Number != tip.Header.Number+1 {
			return fmt.Errorf("ledger: block %d skips height (tip %d)", blk.Header.Number, tip.Header.Number)
		}
		if !bytes.Equal(blk.Header.PrevHash, HashHeader(tip.Header)) {
			return fmt.Errorf("ledger: block %d prev-hash mismatch", blk.Header.Number)
		}
	}
	if want := DataHash(blk.Transactions); !bytes.Equal(blk.Header.DataHash, want) {
		return fmt.Errorf("ledger: block %d data-hash mismatch", blk.Header.Number)
	}
	return checkVerdicts(blk)
}

func checkVerdicts(blk *Block) error {
	if blk.Validation != nil && len(blk.Validation) != len(blk.Transactions) {
		return fmt.Errorf("ledger: block %d validation metadata length mismatch", blk.Header.Number)
	}
	return nil
}

func (c *Chain) pushLocked(blk *Block) {
	c.blocks = append(c.blocks, blk)
	c.committed += uint64(blk.CommittedCount())
}

// Verify walks the whole chain checking linkage and data hashes. It returns
// nil for a structurally sound chain.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.verifyLocked()
}

func (c *Chain) verifyLocked() error {
	for i, blk := range c.blocks {
		if want := DataHash(blk.Transactions); !bytes.Equal(blk.Header.DataHash, want) {
			return fmt.Errorf("ledger: block %d data hash corrupt", blk.Header.Number)
		}
		if i == 0 {
			continue
		}
		prev := c.blocks[i-1]
		if blk.Header.Number != prev.Header.Number+1 {
			return fmt.Errorf("ledger: gap between %d and %d", prev.Header.Number, blk.Header.Number)
		}
		if !bytes.Equal(blk.Header.PrevHash, HashHeader(prev.Header)) {
			return fmt.Errorf("ledger: chain broken at block %d", blk.Header.Number)
		}
	}
	return nil
}

// TipHash returns the hash of the last header, identifying the entire chain
// content (agreement checks compare tip hashes).
func (c *Chain) TipHash() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return nil
	}
	return HashHeader(c.blocks[len(c.blocks)-1].Header)
}

// CommittedTxs returns how many transactions across the whole chain carry a
// Committed verdict (valid or rescued) — the ledger-side tally the chaos
// smoke compares against the clients' acks. Each TxID is sealed with exactly
// one verdict, so the tally is immune to client retries.
func (c *Chain) CommittedTxs() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.committed
}

// ForEach visits blocks in order.
func (c *Chain) ForEach(fn func(*Block) bool) {
	c.mu.RLock()
	blocks := append([]*Block(nil), c.blocks...)
	c.mu.RUnlock()
	for _, b := range blocks {
		if !fn(b) {
			return
		}
	}
}
