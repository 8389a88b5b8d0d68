// Package ledger implements the blockchain itself: blocks of ordered
// transactions chained by header hashes, a merkle accumulator over the
// transaction digests, the block codec, and a block's store entry (Record).
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

// tip is what linkage needs of a chain: the last block's number and header
// hash, and the running tally of Committed verdicts. Tip and Chain embed it.
// Safe for concurrent use.
type tip struct {
	mu     sync.RWMutex
	number uint64 // the last block's; 0 before the first
	hash   []byte // HashHeader of the last block's header; nil before the first
	// committed tallies the Committed verdicts over every block, so status
	// probes read one number instead of walking verdict slices.
	committed uint64
}

// Tip is a validating peer's ledger: the tip alone, advanced in two steps
// (Check, then Advance) around commit.Block's validation. No peer serves a
// block, so its memory does not grow with the chain it commits.
type Tip struct{ tip }

// Checked is a block header that passed Tip.Check, for Tip.Advance.
type Checked struct{ header Header }

// Chain is a tip that also keeps its blocks: the orderer's ledger, which
// serves any block to a subscriber catching up. A block is appended complete
// with its verdicts and never changed afterwards. The chain keeps each block
// as its frame — the canonical encoding a block stream sends, spliced once,
// as the block is appended, from its transactions' bytes — and no decoded
// object: the frames of its newest hotBlocks blocks on the heap, and each
// older one in a Spill, an unlinked file it reads back on demand, at an
// offset it keeps. Frame returns a frame; Get, ForEach and Verify decode
// one. Safe for concurrent use.
type Chain struct {
	tip
	first  uint64    // the first block's number
	cold   []frameAt // blocks first, first+1, … in file
	frames [][]byte  // the blocks after the cold ones
	file   kvstore.Spill
}

// frameAt locates a cold block's frame in the chain's file.
type frameAt struct{ off, n int64 }

// hotBlocks is how many of its newest blocks' frames a chain keeps on its
// heap.
const hotBlocks = 16

const blockKeyPrefix = "b/"

func blockKey(n uint64) []byte {
	k := []byte(blockKeyPrefix)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	return append(k, b[:]...)
}

// Record encodes blk as the store entry NewTip and NewChain load: the
// block's canonical encoding, the bytes a block stream carries. Neither
// writes: the owner of the store commits the record in the same batch as
// whatever else must land with the block (a peer: its state writes and
// height).
func Record(blk *Block) kvstore.BatchOp {
	return RecordFrame(blk.Header.Number, AppendBlock(nil, blk))
}

// RecordFrame is Record of block n given its frame, the block's canonical
// encoding: the frame a peer received, once its verdicts are known to be
// the peer's own.
func RecordFrame(n uint64, frame []byte) kvstore.BatchOp {
	return kvstore.BatchOp{Key: blockKey(n), Value: frame}
}

// NewTip opens the tip of the blocks a non-nil store holds. It reads each
// record once and verifies linkage exactly as NewChain does, but keeps no
// block. The store is only read.
func NewTip(store *kvstore.DB) (*Tip, error) {
	t := &Tip{}
	if err := t.load(store, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// NewChain creates a chain, loading the blocks a non-nil store holds
// (verifying linkage). The store is only read.
func NewChain(store *kvstore.DB) (*Chain, error) {
	c := &Chain{}
	if err := c.load(store, func(blk *Block, rec []byte) { c.keepLocked(blk, bytes.Clone(rec)) }); err != nil {
		return nil, err
	}
	return c, nil
}

// load folds the blocks a non-nil store holds onto a new, unshared tip,
// checking each as Append does, and hands each, with its record, to keep
// when it is set; the record is valid only until keep returns.
func (t *tip) load(store *kvstore.DB, keep func(*Block, []byte)) error {
	if store == nil {
		return nil
	}
	// Keys are big-endian block numbers, so scan order is block order.
	return store.Scan([]byte(blockKeyPrefix), func(_, rec []byte) error {
		blk, err := DecodeBlock(rec)
		if err != nil {
			return fmt.Errorf("ledger: decode block: %w", err)
		}
		if err := t.checkLocked(blk); err != nil {
			return err
		}
		if keep != nil {
			keep(blk, rec)
		} else {
			t.moveLocked(blk)
		}
		return nil
	})
}

// Status returns the last block's number (0 before the first block), its
// header hash and the committed tally, read together: a status answer never
// pairs one block's number with the next block's hash.
func (t *tip) Status() (number uint64, hash []byte, committed uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.number, t.hash, t.committed
}

// Height returns the number of the last block, and whether any block exists.
func (t *tip) Height() (uint64, bool) {
	n, hash, _ := t.Status()
	return n, hash != nil
}

// TipHash returns the hash of the last header, identifying the entire chain
// content (agreement checks compare tip hashes).
func (t *tip) TipHash() []byte {
	_, hash, _ := t.Status()
	return hash
}

// CommittedTxs returns how many transactions across the whole chain carry a
// Committed verdict (valid or rescued) — the ledger-side tally the chaos
// smoke compares against the clients' acks. Each TxID is sealed with exactly
// one verdict, so the tally is immune to client retries.
func (t *tip) CommittedTxs() uint64 {
	_, _, n := t.Status()
	return n
}

// Check reports whether blk would extend the tip: its number is next, its
// PrevHash is the tip's hash, its DataHash binds its transactions and its
// verdicts, if any, number one per transaction. A committer checks before
// it validates and persists, and hands the result to Advance after.
func (t *Tip) Check(blk *Block) (Checked, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkLocked(blk); err != nil {
		return Checked{}, err
	}
	return Checked{blk.Header}, nil
}

// Advance moves the tip onto blk, whose header must be the one Check
// passed; blk's verdicts may be the committer's own. The data hash is not
// computed again: only the number and PrevHash are re-verified against the
// tip.
func (t *Tip) Advance(ck Checked, blk *Block) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.acceptLocked(ck, blk); err != nil {
		return err
	}
	t.moveLocked(blk)
	return nil
}

func (t *tip) checkLocked(blk *Block) error {
	if err := t.linkLocked(blk.Header); err != nil {
		return err
	}
	if want := DataHash(blk.Transactions); !bytes.Equal(blk.Header.DataHash, want) {
		return fmt.Errorf("ledger: block %d data-hash mismatch", blk.Header.Number)
	}
	return checkVerdicts(blk)
}

// linkLocked checks that h is next after the tip; any header extends an
// empty one.
func (t *tip) linkLocked(h Header) error {
	if t.hash == nil {
		return nil
	}
	if h.Number != t.number+1 {
		return fmt.Errorf("ledger: block %d skips height (tip %d)", h.Number, t.number)
	}
	if !bytes.Equal(h.PrevHash, t.hash) {
		return fmt.Errorf("ledger: block %d prev-hash mismatch", h.Number)
	}
	return nil
}

func (t *Tip) acceptLocked(ck Checked, blk *Block) error {
	h := blk.Header
	if h.Number != ck.header.Number || !bytes.Equal(h.PrevHash, ck.header.PrevHash) || !bytes.Equal(h.DataHash, ck.header.DataHash) {
		return fmt.Errorf("ledger: block %d is not the block that was checked", h.Number)
	}
	if err := t.linkLocked(h); err != nil {
		return err
	}
	return checkVerdicts(blk)
}

func checkVerdicts(blk *Block) error {
	if blk.Validation != nil && len(blk.Validation) != len(blk.Transactions) {
		return fmt.Errorf("ledger: block %d validation metadata length mismatch", blk.Header.Number)
	}
	return nil
}

func (t *tip) moveLocked(blk *Block) {
	t.number = blk.Header.Number
	t.hash = HashHeader(blk.Header)
	t.committed += uint64(blk.CommittedCount())
}

// Len returns the number of blocks.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cold) + len(c.frames)
}

// Get returns block n, decoded from its frame. A frame the chain cannot
// read back or decode is a broken invariant, and panics.
func (c *Chain) Get(n uint64) (*Block, bool) {
	frame, ok, err := c.Frame(n)
	if err != nil {
		panic(err.Error())
	}
	if !ok {
		return nil, false
	}
	blk, err := DecodeBlock(frame)
	if err != nil {
		panic(fmt.Sprintf("ledger: block %d: %v", n, err))
	}
	return blk, true
}

// Frame returns block n's frame, AppendBlock of Get(n) byte for byte: the
// one the chain keeps, which the caller must not modify, or a copy read back
// from its file; ok is false when the chain has no block n.
func (c *Chain) Frame(n uint64) (frame []byte, ok bool, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n < c.first || n-c.first >= uint64(len(c.cold)+len(c.frames)) {
		return nil, false, nil
	}
	i := int(n - c.first)
	if i >= len(c.cold) {
		return c.frames[i-len(c.cold)], true, nil
	}
	frame, err = c.file.ReadAt(c.cold[i].off, c.cold[i].n)
	if err != nil {
		return nil, false, fmt.Errorf("ledger: block %d: %w", n, err)
	}
	return frame, true, nil
}

// Seal assembles a block from ordered transactions, linking it to the
// current tip, and appends it. It returns the sealed block.
func (c *Chain) Seal(txs []*protocol.Transaction, validation []protocol.ValidationCode) (*Block, error) {
	return c.SealRescued(txs, nil, validation, nil)
}

// SealRescued is Seal plus the post-order rescue digest committed alongside
// the validation codes (nil when no transaction was rescued). raws[i], when
// not nil, is txs[i]'s canonical encoding, which the block's frame splices
// in as it is (a sealer that received the transactions as bytes hands
// those); a transaction without one is encoded into the frame in place.
func (c *Chain) SealRescued(txs []*protocol.Transaction, raws [][]byte, validation []protocol.ValidationCode, rescueDigest []byte) (*Block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.hash
	if prev == nil {
		genesis := sha256.Sum256([]byte("fabricsharp-genesis"))
		prev = genesis[:]
	}
	blk := &Block{
		Header:       Header{Number: c.number + 1, PrevHash: prev, DataHash: DataHash(txs)},
		Transactions: txs,
		Validation:   validation,
		RescueDigest: rescueDigest,
	}
	if err := checkVerdicts(blk); err != nil {
		return nil, err
	}
	c.keepLocked(blk, appendFrame(nil, blk, raws))
	return blk, nil
}

// Append adds an externally assembled block, enforcing linkage (agreement,
// no skipping) before accepting it.
func (c *Chain) Append(blk *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkLocked(blk); err != nil {
		return err
	}
	c.keepLocked(blk, appendFrame(nil, blk, nil))
	return nil
}

// keepLocked appends blk, whose frame is frame, and moves the tip onto it.
// Frames older than the window go to the file, one write per block; one
// that cannot be written stays on the heap until the next block.
func (c *Chain) keepLocked(blk *Block, frame []byte) {
	if len(c.cold)+len(c.frames) == 0 {
		c.first = blk.Header.Number
	}
	c.frames = append(c.frames, frame)
	c.moveLocked(blk)
	for len(c.frames) > hotBlocks {
		off, err := c.file.Append(c.frames[0])
		if err != nil {
			return
		}
		c.cold = append(c.cold, frameAt{off, int64(len(c.frames[0]))})
		c.frames[0] = nil
		c.frames = c.frames[1:]
	}
}

// Verify walks the whole chain checking linkage and data hashes. It returns
// nil for a structurally sound chain.
func (c *Chain) Verify() error {
	var t tip
	var err error
	c.ForEach(func(blk *Block) bool {
		if err = t.checkLocked(blk); err == nil {
			t.moveLocked(blk)
		}
		return err == nil
	})
	return err
}

// ForEach visits the blocks the chain held when it was called, in order,
// each decoded as Get decodes it.
func (c *Chain) ForEach(fn func(*Block) bool) {
	c.mu.RLock()
	first, n := c.first, uint64(len(c.cold)+len(c.frames))
	c.mu.RUnlock()
	for i := uint64(0); i < n; i++ {
		blk, _ := c.Get(first + i)
		if !fn(blk) {
			return
		}
	}
}
