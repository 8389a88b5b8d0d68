package ledger

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
)

func tx(id string) *protocol.Transaction {
	return &protocol.Transaction{ID: protocol.TxID(id), Contract: "kv", Function: "put", Args: []string{id}}
}

func txs(ids ...string) []*protocol.Transaction {
	out := make([]*protocol.Transaction, len(ids))
	for i, id := range ids {
		out[i] = tx(id)
	}
	return out
}

func TestSealAndLinkage(t *testing.T) {
	c, err := NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := c.Seal(txs("a", "b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Seal(txs("c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Header.Number != 1 || b2.Header.Number != 2 {
		t.Fatalf("numbers %d,%d", b1.Header.Number, b2.Header.Number)
	}
	if !bytes.Equal(b2.Header.PrevHash, b1.Hash()) {
		t.Error("prev hash not linked")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if h, ok := c.Height(); !ok || h != 2 {
		t.Errorf("height %d,%v", h, ok)
	}
}

func TestAppendRejectsSkipsAndForks(t *testing.T) {
	c, _ := NewChain(nil)
	b1, _ := c.Seal(txs("a"), nil)

	skip := &Block{Header: Header{Number: 3, PrevHash: b1.Hash(), DataHash: DataHash(nil)}}
	if err := c.Append(skip); err == nil {
		t.Error("skipping block accepted")
	}
	fork := &Block{Header: Header{Number: 2, PrevHash: []byte("bogus"), DataHash: DataHash(nil)}}
	if err := c.Append(fork); err == nil {
		t.Error("forked block accepted")
	}
	tampered := &Block{
		Header:       Header{Number: 2, PrevHash: b1.Hash(), DataHash: DataHash(txs("x"))},
		Transactions: txs("y"), // content does not match data hash
	}
	if err := c.Append(tampered); err == nil {
		t.Error("tampered block accepted")
	}
}

func TestNoCreation(t *testing.T) {
	// A block whose DataHash was computed over different transactions than
	// it carries must be rejected — transactions cannot be invented or
	// swapped after sealing.
	c, _ := NewChain(nil)
	b, _ := c.Seal(txs("real"), nil)
	b.Transactions = txs("forged")
	c2, _ := NewChain(nil)
	blk := &Block{Header: b.Header, Transactions: b.Transactions}
	if err := c2.Append(blk); err == nil {
		t.Error("block with forged content accepted")
	}
}

func TestDataHashDeterministicAndOrderSensitive(t *testing.T) {
	a := DataHash(txs("t1", "t2", "t3"))
	b := DataHash(txs("t1", "t2", "t3"))
	if !bytes.Equal(a, b) {
		t.Error("data hash not deterministic")
	}
	if bytes.Equal(a, DataHash(txs("t2", "t1", "t3"))) {
		t.Error("data hash must be order sensitive (the reordering result is sealed)")
	}
	if bytes.Equal(DataHash(nil), DataHash(txs("t1"))) {
		t.Error("empty and singleton hashes collide")
	}
}

func TestMerkleOddCounts(t *testing.T) {
	prop := func(n uint8) bool {
		count := int(n%9) + 1
		ids := make([]string, count)
		for i := range ids {
			ids[i] = fmt.Sprintf("tx%d", i)
		}
		h1 := DataHash(txs(ids...))
		h2 := DataHash(txs(ids...))
		return bytes.Equal(h1, h2) && len(h1) == 32
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidationMetadata(t *testing.T) {
	// A block carries its verdicts from the moment it is on the chain; the
	// tally counts valid and rescued.
	c, _ := NewChain(nil)
	rescued := []protocol.ValidationCode{protocol.Valid, protocol.Rescued, protocol.MVCCConflict}
	if _, err := c.SealRescued(txs("a", "b", "c"), nil, rescued, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(1)
	if got.ValidCount() != 1 || got.CommittedCount() != 2 {
		t.Errorf("ValidCount, CommittedCount = %d, %d want 1, 2", got.ValidCount(), got.CommittedCount())
	}
	if _, err := c.Seal(txs("d", "e"), []protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict}); err != nil {
		t.Fatal(err)
	}
	if n := c.CommittedTxs(); n != 3 {
		t.Errorf("CommittedTxs = %d want 3 (2 in block 1, 1 in block 2)", n)
	}
	tip, _ := c.Get(2)
	short := &Block{
		Header:       Header{Number: 3, PrevHash: tip.Hash(), DataHash: DataHash(txs("f", "g"))},
		Transactions: txs("f", "g"),
		Validation:   []protocol.ValidationCode{protocol.Valid},
	}
	var empty Tip
	if _, err := empty.Check(short); err == nil {
		t.Error("Check accepted a verdict length mismatch")
	}
	if err := c.Append(short); err == nil {
		t.Error("Append accepted a verdict length mismatch")
	}
}

func TestSealWithValidationLengthMismatch(t *testing.T) {
	c, _ := NewChain(nil)
	if _, err := c.Seal(txs("a"), []protocol.ValidationCode{protocol.Valid, protocol.Valid}); err == nil {
		t.Error("seal with mismatched validation metadata accepted")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	// The chain does not write; whoever owns the store commits Record(blk).
	dir := t.TempDir()
	kv, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(kv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		blk, err := c.SealRescued(txs(fmt.Sprintf("tx%d", i)), nil, []protocol.ValidationCode{protocol.Rescued}, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.ApplyBatch([]kvstore.BatchOp{Record(blk)}); err != nil {
			t.Fatal(err)
		}
	}
	tip := c.TipHash()
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	c2, err := NewChain(kv2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 5 {
		t.Fatalf("reloaded %d blocks want 5", c2.Len())
	}
	if !bytes.Equal(c2.TipHash(), tip) {
		t.Error("tip hash changed across reload")
	}
	if n := c2.CommittedTxs(); n != 5 {
		t.Errorf("CommittedTxs rebuilt as %d on reopen, want 5", n)
	}
	if b, _ := c2.Get(3); b.Validation[0] != protocol.Rescued || !bytes.Equal(b.RescueDigest, []byte{2}) {
		t.Errorf("block 3 reloaded with verdicts %v digest %x", b.Validation, b.RescueDigest)
	}
	if err := c2.Verify(); err != nil {
		t.Fatal(err)
	}
	// Chain continues from the reloaded tip.
	if _, err := c2.Seal(txs("more"), []protocol.ValidationCode{protocol.Valid}); err != nil {
		t.Fatal(err)
	}
	if h, _ := c2.Height(); h != 6 {
		t.Errorf("height after reload+seal = %d", h)
	}
}

func TestGetAndTip(t *testing.T) {
	c, _ := NewChain(nil)
	if _, ok := c.Height(); ok || c.TipHash() != nil {
		t.Error("empty chain has a tip")
	}
	if _, ok := c.Get(1); ok {
		t.Error("empty chain returned a block")
	}
	c.Seal(txs("a"), nil)
	c.Seal(txs("b"), nil)
	if b, ok := c.Get(2); !ok || b.Transactions[0].ID != "b" {
		t.Error("Get(2) wrong")
	}
	if _, ok := c.Get(3); ok {
		t.Error("Get past tip succeeded")
	}
	if n, ok := c.Height(); !ok || n != 2 {
		t.Error("Height wrong")
	}
	if b, _ := c.Get(2); !bytes.Equal(c.TipHash(), b.Hash()) {
		t.Error("TipHash is not block 2's")
	}
}

func TestForEachOrder(t *testing.T) {
	c, _ := NewChain(nil)
	for i := 0; i < 4; i++ {
		c.Seal(txs(fmt.Sprintf("t%d", i)), nil)
	}
	var nums []uint64
	c.ForEach(func(b *Block) bool {
		nums = append(nums, b.Header.Number)
		return b.Header.Number < 3 // early stop
	})
	if fmt.Sprint(nums) != "[1 2 3]" {
		t.Errorf("ForEach order/stop wrong: %v", nums)
	}
}

func TestAgreementTipHashEquality(t *testing.T) {
	// Two replicas sealing the same transaction stream agree byte-for-byte.
	a, _ := NewChain(nil)
	b, _ := NewChain(nil)
	for i := 0; i < 10; i++ {
		batch := txs(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
		a.Seal(batch, nil)
		b.Seal(batch, nil)
	}
	if !bytes.Equal(a.TipHash(), b.TipHash()) {
		t.Error("replicas diverged on identical input")
	}
}

// TestStatusProbesConcurrentWithAppend is the status-probe race: one
// goroutine appends sealed blocks (the committer) while another reads the
// tally, the length and the tip hash (the MsgStatusReq handlers). Run under
// -race.
func TestStatusProbesConcurrentWithAppend(t *testing.T) {
	sealer, _ := NewChain(nil)
	const blocks = 200
	sealed := make([]*Block, blocks)
	for i := range sealed {
		blk, err := sealer.Seal(txs(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)),
			[]protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict})
		if err != nil {
			t.Fatal(err)
		}
		sealed[i] = blk
	}
	c, _ := NewChain(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, blk := range sealed {
			if err := c.Append(blk); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		// Tally first: it can only trail a length read after it.
		n, length := c.CommittedTxs(), c.Len()
		if n < last || n > uint64(length) {
			t.Fatalf("tally went %d → %d with %d blocks", last, n, length)
		}
		if length > 0 && c.TipHash() == nil {
			t.Fatalf("%d blocks and no tip hash", length)
		}
		last = n
	}
	if n := c.CommittedTxs(); n != blocks {
		t.Errorf("CommittedTxs = %d want %d", n, blocks)
	}
}

// TestStatusNamesOneBlock appends 1 000 blocks through Check and Advance
// (the committer's path) while another goroutine polls Status (the
// MsgStatusReq handlers). Every answer must name one real header: its hash
// is the header hash of the block its number names, and with one committed
// transaction per block its tally is that number too. Run under -race.
func TestStatusNamesOneBlock(t *testing.T) {
	sealer, _ := NewChain(nil)
	const blocks = 1000
	sealed := make([]*Block, blocks)
	numberOf := map[string]uint64{}
	for i := range sealed {
		blk, err := sealer.Seal(txs(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)),
			[]protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict})
		if err != nil {
			t.Fatal(err)
		}
		sealed[i] = blk
		numberOf[string(blk.Hash())] = blk.Header.Number
	}
	var tip Tip
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, blk := range sealed {
			ck, err := tip.Check(blk)
			if err == nil {
				err = tip.Advance(ck, blk)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	polls := 0
	for running := true; running; polls++ {
		select {
		case <-done:
			running = false
		default:
		}
		n, hash, committed := tip.Status()
		if hash == nil {
			if n != 0 || committed != 0 {
				t.Fatalf("no tip hash with number %d and tally %d", n, committed)
			}
			continue
		}
		if got, ok := numberOf[string(hash)]; !ok || got != n || committed != n {
			t.Fatalf("status (%d, %x, %d) names no single block (the hash is block %d's)", n, hash, committed, got)
		}
	}
	if n, _, committed := tip.Status(); n != blocks || committed != blocks {
		t.Fatalf("tip at %d with tally %d after %d blocks", n, committed, blocks)
	}
	t.Logf("%d polls", polls)
}

// TestAdvanceRefusesAnUncheckedHeader pins the committer's one hash: Advance
// trusts the data hash Check verified, so a block whose header differs from
// the checked one in any field must be refused, and the tip must not move.
func TestAdvanceRefusesAnUncheckedHeader(t *testing.T) {
	sealer, _ := NewChain(nil)
	b1, _ := sealer.Seal(txs("a"), nil)
	b2, _ := sealer.Seal(txs("b"), nil)
	var tip Tip
	ck, err := tip.Check(b1)
	if err != nil {
		t.Fatal(err)
	}
	other := *b1
	other.Header.DataHash = DataHash(txs("forged"))
	other.Transactions = txs("forged")
	if err := tip.Advance(ck, &other); err == nil {
		t.Error("Advance accepted a data hash other than the checked one")
	}
	if err := tip.Advance(ck, b2); err == nil {
		t.Error("Advance accepted block 2 on block 1's check")
	}
	if _, ok := tip.Height(); ok {
		t.Fatal("a refused Advance moved the tip")
	}
	// The checked header with the committer's own verdicts goes through.
	own := &Block{Header: b1.Header, Transactions: b1.Transactions, Validation: []protocol.ValidationCode{protocol.Rescued}}
	if err := tip.Advance(ck, own); err != nil {
		t.Fatal(err)
	}
	if n, hash, committed := tip.Status(); n != 1 || !bytes.Equal(hash, b1.Hash()) || committed != 1 {
		t.Fatalf("tip (%d, %x, %d) after block 1", n, hash, committed)
	}
	// Linkage is checked again: a stale check of block 1 cannot land twice.
	if err := tip.Advance(ck, own); err == nil {
		t.Error("Advance landed block 1 twice")
	}
}

// TestTipOpensAsTheChainDoes reopens a store through NewTip and NewChain:
// both stand at the same number, hash and tally, and both refuse a store
// with a block missing from the middle.
func TestTipOpensAsTheChainDoes(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	sealer, _ := NewChain(nil)
	for i := 0; i < 6; i++ {
		blk, err := sealer.Seal(txs(fmt.Sprintf("t%d", i)), []protocol.ValidationCode{protocol.Valid})
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.ApplyBatch([]kvstore.BatchOp{Record(blk)}); err != nil {
			t.Fatal(err)
		}
	}
	tip, err := NewTip(kv)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewChain(kv)
	if err != nil {
		t.Fatal(err)
	}
	n, hash, committed := tip.Status()
	if cn, chash, ccommitted := chain.Status(); n != 6 || cn != n || !bytes.Equal(hash, chash) || !bytes.Equal(hash, sealer.TipHash()) || committed != 6 || ccommitted != committed {
		t.Fatalf("tip opened at (%d, %x, %d), chain at (%d, %x, %d); sealed (6, %x, 6)", n, hash, committed, cn, chash, ccommitted, sealer.TipHash())
	}
	if err := kv.ApplyBatch([]kvstore.BatchOp{{Key: blockKey(3), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTip(kv); err == nil {
		t.Error("NewTip opened a store with a gap")
	}
	if _, err := NewChain(kv); err == nil {
		t.Error("NewChain opened a store with a gap")
	}
}

// TestChainKeepsAHotWindow: a chain longer than its window keeps the newest
// hotBlocks frames on the heap and reads every older one back from its
// file. Sealed from bytes in hand, from decoded transactions, appended, or
// loaded from a store, every frame — hot as it was sealed, cold as it is
// read back — is AppendBlock of the block Get decodes, and the chain
// verifies and reloads to the same tip.
func TestChainKeepsAHotWindow(t *testing.T) {
	const blocks = 3 * hotBlocks
	dir := t.TempDir()
	kv, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	sealer, _ := NewChain(nil)
	follower, _ := NewChain(nil)
	hot := make([][]byte, blocks+1)
	for n := 1; n <= blocks; n++ {
		batch := txs(fmt.Sprintf("a%d", n), fmt.Sprintf("b%d", n), fmt.Sprintf("c%d", n))
		var raws [][]byte
		if n%2 == 0 { // every other block hands in some of its bytes
			raws = [][]byte{codec.AppendTransaction(nil, batch[0]), nil, codec.AppendTransaction(nil, batch[2])}
		}
		blk, err := sealer.SealRescued(batch, raws, []protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict, protocol.Rescued}, []byte{byte(n)})
		if err != nil {
			t.Fatal(err)
		}
		if hot[n], _, err = sealer.Frame(uint64(n)); err != nil || !bytes.Equal(hot[n], AppendBlock(nil, blk)) {
			t.Fatalf("block %d: the frame sealed is not the encoded block (%v)", n, err)
		}
		if err := follower.Append(blk); err != nil {
			t.Fatal(err)
		}
		if err := kv.ApplyBatch([]kvstore.BatchOp{Record(blk)}); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := NewChain(kv)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Chain{sealer, follower, loaded} {
		if len(c.frames) != hotBlocks || len(c.cold) != blocks-hotBlocks {
			t.Fatalf("chain keeps %d frames hot and %d cold, want %d and %d", len(c.frames), len(c.cold), hotBlocks, blocks-hotBlocks)
		}
		for n := uint64(1); n <= blocks; n++ {
			frame, ok, err := c.Frame(n)
			if err != nil || !ok || !bytes.Equal(frame, hot[n]) {
				t.Fatalf("block %d read back differently (ok %v, %v)", n, ok, err)
			}
			blk, _ := c.Get(n)
			if !bytes.Equal(AppendBlock(nil, blk), frame) {
				t.Fatalf("block %d: Get does not decode its frame", n)
			}
		}
		if _, ok, _ := c.Frame(blocks + 1); ok {
			t.Fatal("a chain returned a block past its tip")
		}
		if err := c.Verify(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.TipHash(), sealer.TipHash()) || c.CommittedTxs() != 2*blocks {
			t.Fatalf("tip %x tally %d, want %x and %d", c.TipHash(), c.CommittedTxs(), sealer.TipHash(), 2*blocks)
		}
	}
}

// TestTransactionSizeIsTheEncodedLength: the size a block's frame is
// allocated with is each transaction's encoded length.
func TestTransactionSizeIsTheEncodedLength(t *testing.T) {
	full := &protocol.Transaction{
		ID: "t1", ClientID: "client", Contract: "kv", Function: "put", Args: []string{"k", "v", ""},
		SnapshotBlock: 7,
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "k"}, {Key: "other"}},
			Writes: []protocol.WriteItem{{Key: "k", Value: []byte("v")}, {Key: "gone", Delete: true}},
		},
		Endorsements: []protocol.Endorsement{{EndorserID: "peer0", Signature: []byte("sig")}},
	}
	for _, tx := range []*protocol.Transaction{{}, tx("x"), full} {
		if got, want := codec.TransactionSize(tx), len(codec.AppendTransaction(nil, tx)); got != want {
			t.Errorf("TransactionSize(%s) = %d, encoding is %d bytes", tx.ID, got, want)
		}
	}
}

// TestFailedSpillKeepsFramesHot: a chain whose file cannot be written keeps
// the frames that should have left its window, serves them, and moves them
// all at the next block once it can.
func TestFailedSpillKeepsFramesHot(t *testing.T) {
	c, _ := NewChain(nil)
	c.file.Dir = filepath.Join(t.TempDir(), "missing")
	seal := func(n int) {
		if _, err := c.Seal(txs(fmt.Sprint("t", n)), []protocol.ValidationCode{protocol.Valid}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 2*hotBlocks; n++ {
		seal(n)
	}
	if len(c.cold) != 0 || len(c.frames) != 2*hotBlocks {
		t.Fatalf("an unwritable chain keeps %d frames cold and %d hot", len(c.cold), len(c.frames))
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.file.Dir = t.TempDir()
	seal(2*hotBlocks + 1)
	if len(c.cold) != hotBlocks+1 || len(c.frames) != hotBlocks {
		t.Fatalf("once writable the chain keeps %d frames cold and %d hot", len(c.cold), len(c.frames))
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBlockRefusesAMalformedTransaction: a block whose transaction
// record is whole but does not decode as a transaction is refused, never
// returned with a nil transaction in its place.
func TestDecodeBlockRefusesAMalformedTransaction(t *testing.T) {
	frame := appendMetadata(codec.AppendBytes(appendHead(nil, Header{Number: 1}, 1), []byte{0xff}), nil, nil)
	if blk, err := DecodeBlock(frame); err == nil {
		t.Fatalf("decoded a block with transactions %v", blk.Transactions)
	}
}
