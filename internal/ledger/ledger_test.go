package ledger

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

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
	if _, err := c.SealRescued(txs("a", "b", "c"), rescued, []byte{1}); err != nil {
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
	tip, _ := c.Tip()
	short := &Block{
		Header:       Header{Number: 3, PrevHash: tip.Hash(), DataHash: DataHash(txs("f", "g"))},
		Transactions: txs("f", "g"),
		Validation:   []protocol.ValidationCode{protocol.Valid},
	}
	if err := c.Check(short); err == nil {
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
		blk, err := c.SealRescued(txs(fmt.Sprintf("tx%d", i)), []protocol.ValidationCode{protocol.Rescued}, []byte{byte(i)})
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
	if _, ok := c.Tip(); ok {
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
	if b, ok := c.Tip(); !ok || b.Header.Number != 2 {
		t.Error("Tip wrong")
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
