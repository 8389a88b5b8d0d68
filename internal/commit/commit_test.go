package commit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/validation"
)

// testEnv bundles an MSP with one endorsing peer identity.
type testEnv struct {
	msp    *identity.Service
	peer   *identity.Identity
	policy identity.Policy
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	msp := identity.NewService()
	peer, err := msp.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{msp: msp, peer: peer, policy: identity.SignedBy("peer0")}
}

func (e *testEnv) sign(tx *protocol.Transaction) {
	tx.Endorsements = []protocol.Endorsement{{
		EndorserID: e.peer.ID,
		Signature:  e.peer.Sign(tx.Digest()),
	}}
}

// seedState commits block 1 writing keys k0..k{n-1} and returns the db.
func seedState(t *testing.T, n int) *statedb.DB {
	t.Helper()
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var writes []statedb.BlockWrites
	for i := 0; i < n; i++ {
		writes = append(writes, statedb.BlockWrites{
			Pos:    uint32(i + 1),
			Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", i), Value: []byte("seed")}},
		})
	}
	if err := db.ApplyBlock(1, writes); err != nil {
		t.Fatal(err)
	}
	return db
}

// randomBlock builds block 2 over the seeded keys: a mix of fresh reads,
// stale reads, unsigned transactions, and overlapping writes.
func randomBlock(t *testing.T, env *testEnv, db *statedb.DB, rng *rand.Rand, txCount, keyPool int) *ledger.Block {
	t.Helper()
	var txs []*protocol.Transaction
	for i := 0; i < txCount; i++ {
		tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("t%d", i)), SnapshotBlock: 1}
		for r := 0; r < 1+rng.Intn(3); r++ {
			key := fmt.Sprintf("k%d", rng.Intn(keyPool))
			var ver seqno.Seq
			if vv, ok := db.Get(key); ok {
				ver = vv.Version
			}
			if rng.Intn(5) == 0 { // stale read
				ver = seqno.Commit(1, uint32(keyPool+1+rng.Intn(5)))
			}
			tx.RWSet.Reads = append(tx.RWSet.Reads, protocol.ReadItem{Key: key, Version: ver})
		}
		for w := 0; w < rng.Intn(3); w++ {
			tx.RWSet.Writes = append(tx.RWSet.Writes, protocol.WriteItem{
				Key: fmt.Sprintf("k%d", rng.Intn(keyPool)), Value: []byte(fmt.Sprintf("v%d", i)),
			})
		}
		if rng.Intn(6) != 0 { // 1 in 6 stays unsigned → endorsement failure
			env.sign(tx)
		}
		txs = append(txs, tx)
	}
	chain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Seal(nil, nil); err != nil { // block 1 placeholder
		t.Fatal(err)
	}
	blk, err := chain.Seal(txs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// seedShadow is an orderer's shadow of what seedState commits.
func seedShadow(n int) *validation.ShadowState {
	shadow := validation.NewValueShadowState()
	for i := 0; i < n; i++ {
		shadow.Seed(fmt.Sprintf("k%d", i), []byte("seed"), seqno.Commit(1, uint32(i+1)))
	}
	return shadow
}

// matchPipelineSides runs blk through both sides of the pipeline — the
// peer's ValidateBlock and ApplyBlock on db, the orderer's ComputeVerdicts
// and ApplyRescued on shadow — and fails if a code differs, or if a key of
// k0..k{keys-1} differs in presence, version or value.
func matchPipelineSides(t *testing.T, db *statedb.DB, shadow *validation.ShadowState, blk *ledger.Block, opts validation.Options, keys int) {
	t.Helper()
	res := ValidateBlock(db, blk, Options{Options: opts})
	if err := db.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
		t.Fatal(err)
	}
	want := validation.ComputeVerdicts(shadow, blk.Header.Number, blk.Transactions, opts)
	shadow.ApplyRescued(blk.Header.Number, blk.Transactions, want, nil)
	if !slices.Equal(res.Codes, want) {
		t.Fatalf("peer codes %v, orderer codes %v", res.Codes, want)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		vv, ok := db.Get(key)
		value, ver, shadowOK := shadow.Read(key)
		if ok != shadowOK || vv.Version != ver || !bytes.Equal(vv.Value, value) {
			t.Fatalf("%s: peer %q@%v (%v), orderer %q@%v (%v)", key, vv.Value, vv.Version, ok, value, ver, shadowOK)
		}
	}
	if db.Height() != shadow.Height() {
		t.Fatalf("peer at height %d, orderer at %d", db.Height(), shadow.Height())
	}
}

// TestParallelMatchesSequential holds the two sides of the pipeline to one
// outcome: for randomized contended blocks, the peer's validator (its
// endorsement checks spread over GOMAXPROCS workers) and the orderer's
// sequential verdicts over a shadow derive the same codes and leave every
// key at the same version.
func TestParallelMatchesSequential(t *testing.T) {
	env := newTestEnv(t)
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		db := seedState(t, 8)
		blk := randomBlock(t, env, db, rng, 2+rng.Intn(30), 8)
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			matchPipelineSides(t, db, seedShadow(8), blk, validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}, 8)
		})
	}
}

// TestParallelMatchesSequentialNoMVCC covers the Sharp/Focc-s fast path:
// endorsement checks only.
func TestParallelMatchesSequentialNoMVCC(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewSource(7))
	db := seedState(t, 8)
	blk := randomBlock(t, env, db, rng, 20, 8)
	matchPipelineSides(t, db, seedShadow(8), blk, validation.Options{MSP: env.msp, Policy: env.policy}, 8)
}

// sealed seals blocks blocks of writers transactions each, every one writing
// a key of its own, signed by env's peer.
func sealed(t *testing.T, env *testEnv, blocks, writers int) []*ledger.Block {
	t.Helper()
	source, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ledger.Block, blocks)
	for b := range out {
		txs := make([]*protocol.Transaction, writers)
		for i := range txs {
			txs[i] = &protocol.Transaction{
				ID:    protocol.TxID(fmt.Sprintf("b%d-t%d", b, i)),
				RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: fmt.Sprintf("key-%d-%d", b, i), Value: []byte("v")}}},
			}
			env.sign(txs[i])
		}
		if out[b], err = source.Seal(txs, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestCommitterPipeline(t *testing.T) {
	env := newTestEnv(t)
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tip := &ledger.Tip{}
	opts := Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}}
	const blocks = 10
	chain := sealed(t, env, blocks, 4)
	for _, blk := range chain {
		if err := Block(state, tip, blk, nil, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A block at or below the tip no longer extends it.
	if err := Block(state, tip, chain[blocks-1], nil, opts, nil); err == nil {
		t.Error("the tip block committed twice")
	}
	if state.Height() != blocks {
		t.Errorf("height = %d", state.Height())
	}
	n, hash, tally := tip.Status()
	if want := ledger.HashHeader(chain[blocks-1].Header); n != blocks || !bytes.Equal(hash, want) || tally != blocks*4 {
		t.Errorf("peer tip (%d, %x, %d), sealed (%d, %x, %d)", n, hash, tally, blocks, want, blocks*4)
	}
}

// TestCommitterBoundsHotKeyHistory pins the commit's pruning: a key written
// in every block keeps at most historyBlocks+1 versions — the latest at or
// before the horizon plus one per block after it — however long the chain
// grows, and the snapshots inside that window still read exactly.
func TestCommitterBoundsHotKeyHistory(t *testing.T) {
	env := newTestEnv(t)
	source, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tip := &ledger.Tip{}
	opts := Options{Options: validation.Options{MSP: env.msp, Policy: env.policy}}
	const blocks = 60
	hot := []string{"hot-a", "hot-b"}
	for b := 1; b <= blocks; b++ {
		var txs []*protocol.Transaction
		for i, key := range hot {
			tx := &protocol.Transaction{
				ID:    protocol.TxID(fmt.Sprintf("b%d-t%d", b, i)),
				RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: key, Value: []byte(fmt.Sprint(b))}}},
			}
			env.sign(tx)
			txs = append(txs, tx)
		}
		blk, err := source.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Block(state, tip, blk, nil, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range hot {
		if n := state.VersionCount(key); n > historyBlocks+1 {
			t.Errorf("%s keeps %d versions after %d blocks, want at most %d", key, n, blocks, historyBlocks+1)
		}
		for b := uint64(blocks - historyBlocks); b <= blocks; b++ {
			vv, ok, err := state.GetAt(key, b)
			if err != nil || !ok || string(vv.Value) != fmt.Sprint(b) {
				t.Errorf("GetAt(%s, %d) = %q ok=%v err=%v", key, b, vv.Value, ok, err)
			}
		}
	}
}

func TestCommitterReportsPoisonedBlock(t *testing.T) {
	state, _ := statedb.New(statedb.Options{})
	tip := &ledger.Tip{}
	// A block whose data hash does not cover its transactions cannot append.
	poisoned := &ledger.Block{
		Header:       ledger.Header{Number: 1, DataHash: ledger.DataHash(nil)},
		Transactions: []*protocol.Transaction{{ID: "x"}},
	}
	if err := Block(state, tip, poisoned, nil, Options{}, nil); err == nil {
		t.Fatal("poisoned block did not surface an error")
	}
	if n, _ := tip.Height(); n != 0 || state.Height() != 0 {
		t.Fatalf("after the poisoned block: tip %d, state height %d; want 0", n, state.Height())
	}
}

// TestCommitterFailsOnAMutatedSealedVerdict keeps the agreement check the
// peer-chain walks of the agreement tests relied on: a delivered block whose
// sealed verdicts or rescue digest differ from what the peer derives fails
// the commit, and the tip stays where it was.
func TestCommitterFailsOnAMutatedSealedVerdict(t *testing.T) {
	env := newTestEnv(t)
	for _, mutate := range []struct {
		what string
		fn   func(*ledger.Block)
	}{
		{"verdict", func(b *ledger.Block) { b.Validation[1] = protocol.MVCCConflict }},
		{"rescue digest", func(b *ledger.Block) { b.RescueDigest = []byte{1} }},
	} {
		t.Run(mutate.what, func(t *testing.T) {
			state, _ := statedb.New(statedb.Options{})
			tip := &ledger.Tip{}
			opts := Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}}
			source, _ := ledger.NewChain(nil)
			seal := func(b int) *ledger.Block {
				txs := make([]*protocol.Transaction, 3)
				for i := range txs {
					txs[i] = &protocol.Transaction{
						ID:    protocol.TxID(fmt.Sprintf("b%d-t%d", b, i)),
						RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d-%d", b, i), Value: []byte("v")}}},
					}
					env.sign(txs[i])
				}
				blk, err := source.Seal(txs, make([]protocol.ValidationCode, len(txs)))
				if err != nil {
					t.Fatal(err)
				}
				return blk
			}
			if err := Block(state, tip, seal(1), nil, opts, nil); err != nil {
				t.Fatal(err)
			}
			bad := seal(2)
			mutate.fn(bad)
			err := Block(state, tip, bad, nil, opts, nil)
			if err == nil {
				t.Fatal("a mutated sealed block committed")
			}
			if !strings.Contains(err.Error(), "diverges") {
				t.Fatalf("the commit failed with %v, want a divergence", err)
			}
			if n, _, committed := tip.Status(); n != 1 || committed != 3 || state.Height() != 1 {
				t.Fatalf("after the mutated block 2: tip at %d with %d committed, state at %d; want block 1's", n, committed, state.Height())
			}
		})
	}
}

// walRecords walks the store's write-ahead log by the framing
// internal/kvstore/wal.go documents (crc uint32 | payloadLen uint32 |
// payload) and returns how many records it holds and its length.
func walRecords(t *testing.T, dir string) (records, size int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); records++ {
		if off+8 > len(raw) {
			t.Fatalf("log ends inside a record header at %d", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(raw[off+4:]))
		if off > len(raw) {
			t.Fatalf("log ends inside a record at %d", len(raw))
		}
	}
	return records, len(raw)
}

// TestDurableCommitIsOneWrite pins the commit point: a 100-transaction block
// on a durable peer costs the store exactly one batch — one log record
// holding the block record (verdicts on it), the 100 state writes and the
// height. A second record would be a second commit point: a Put of the
// block beside the batch, or the block stored again once validated.
func TestDurableCommitIsOneWrite(t *testing.T) {
	env := newTestEnv(t)
	dir := t.TempDir()
	open := func() (*kvstore.DB, *statedb.DB) {
		store, err := kvstore.Open(kvstore.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		state, err := statedb.New(statedb.Options{Backing: store})
		if err != nil {
			t.Fatal(err)
		}
		return store, state
	}
	store, state := open()
	tip, err := ledger.NewTip(store)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}}
	source, _ := ledger.NewChain(nil)
	seal := func(n int) *ledger.Block {
		txs := make([]*protocol.Transaction, 100)
		for i := range txs {
			txs[i] = &protocol.Transaction{
				ID:    protocol.TxID(fmt.Sprintf("b%d-t%d", n, i)),
				RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("b%d", n))}}},
			}
			env.sign(txs[i])
		}
		blk, err := source.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	deliver := func(blk *ledger.Block) {
		if err := Block(state, tip, blk, nil, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	deliver(seal(1))
	records, size := walRecords(t, dir)
	if records != 1 {
		t.Fatalf("block 1 left %d log records, want 1", records)
	}
	blk2 := seal(2)
	deliver(blk2)
	records2, size2 := walRecords(t, dir)
	if records2 != 2 {
		t.Fatalf("block 2 added %d log records, want 1", records2-records)
	}
	// The peer's record of block 2: the sealed block with its verdicts, all Valid.
	rec := ledger.Record(&ledger.Block{Header: blk2.Header, Transactions: blk2.Transactions, Validation: make([]protocol.ValidationCode, len(blk2.Transactions))})
	if grew := size2 - size; grew < len(rec.Value)+100*len("k00b2") {
		t.Errorf("the log grew %d bytes: too few for the block record (%d) plus 100 writes", grew, len(rec.Value))
	}
	n, hash, committed := tip.Status()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// What that one record holds is everything: a reopened store has block
	// 2 with its verdicts, state at height 2, and the block's writes, and
	// its tip stands where the closed one stood.
	store, state = open()
	defer store.Close()
	chain, err := ledger.NewChain(store)
	if err != nil {
		t.Fatal(err)
	}
	if blk := mustGet(t, chain, 2); blk.CommittedCount() != 100 {
		t.Errorf("stored block 2 carries %d committed verdicts, want 100", blk.CommittedCount())
	}
	reopened, err := ledger.NewTip(store)
	if err != nil {
		t.Fatal(err)
	}
	if rn, rhash, rcommitted := reopened.Status(); rn != n || !bytes.Equal(rhash, hash) || rcommitted != committed || n != 2 || committed != 200 {
		t.Errorf("reopened tip (%d, %x, %d), closed at (%d, %x, %d); want block 2 and 200 committed", rn, rhash, rcommitted, n, hash, committed)
	}
	if state.Height() != 2 {
		t.Errorf("stored state height %d, want 2", state.Height())
	}
	if vv, ok := state.Get("k99"); !ok || string(vv.Value) != "b2" {
		t.Errorf("k99 = %q, %v; want b2", vv.Value, ok)
	}
}

func mustGet(t *testing.T, chain *ledger.Chain, n uint64) *ledger.Block {
	t.Helper()
	blk, ok := chain.Get(n)
	if !ok {
		t.Fatalf("chain has no block %d", n)
	}
	return blk
}

// TestOneFoldLeavesOneSpan: a peer whose histories reach the fold step
// folds once after the block whose prune found them, and its ring holds one
// fold span, keyed by that block. Every block writes 128 fresh keys, and
// with no base the step is statedb's minimum of 1 024 histories: block 12's
// prune is the first to find them and folds the 128 keys block 1 settled,
// and the next fold waits for 1 024 more, past block 16.
func TestOneFoldLeavesOneSpan(t *testing.T) {
	source, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tip, tracer := &ledger.Tip{}, trace.New("peer0", "peer", 1<<12)
	for b := 1; b <= 16; b++ {
		tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("b%d", b))}
		for i := 0; i < 128; i++ {
			tx.RWSet.Writes = append(tx.RWSet.Writes, protocol.WriteItem{Key: fmt.Sprintf("k%02d-%03d", b, i), Value: []byte("v")})
		}
		blk, err := source.Seal([]*protocol.Transaction{tx}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Block(state, tip, blk, nil, Options{}, tracer); err != nil {
			t.Fatal(err)
		}
	}
	if n := state.Folds(); n != 1 {
		t.Fatalf("%d folds, want 1", n)
	}
	if spans := trace.Spans(tracer.Dump(), trace.StageFold); len(spans) != 1 || spans[0].Block != 12 || spans[0].NS <= 0 {
		t.Errorf("fold spans %+v, want one at block 12", spans)
	}
	if vv, ok := state.Get("k01-000"); !ok || string(vv.Value) != "v" || state.VersionCount("k01-000") != 1 {
		t.Errorf("a folded key reads %q %v", vv.Value, ok)
	}
}

// TestPeerRecordsBlockStagesOncePerBlock: a peer delivers, validates and
// commits a block whole, so its ring holds one deliver, validate and commit
// event per block — no TxID, the block number as the event's block — plus a
// rescue event per rescued transaction and the block-keyed spans, however
// many transactions the blocks carry. Every block but the seed pays a→b,
// then b→c over the same version of b: the second is an MVCC casualty the
// rescue phase re-executes.
func TestPeerRecordsBlockStagesOncePerBlock(t *testing.T) {
	source, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tip, tracer := &ledger.Tip{}, trace.New("peer0", "peer", 1<<12)
	opts := Options{Options: validation.Options{MVCC: true}, Rescue: true, Registry: chaincode.NewRegistry(chaincode.Smallbank{})}
	payment := func(id, from, to string) *protocol.Transaction {
		tx := &protocol.Transaction{ID: protocol.TxID(id), Contract: "smallbank", Function: "send_payment", Args: []string{from, to, "1"}}
		for _, key := range []string{chaincode.CheckingKey(from), chaincode.CheckingKey(to)} {
			vv, _ := state.Get(key)
			tx.RWSet.Reads = append(tx.RWSet.Reads, protocol.ReadItem{Key: key, Version: vv.Version})
			tx.RWSet.Writes = append(tx.RWSet.Writes, protocol.WriteItem{Key: key, Value: []byte("100")})
		}
		tx.RWSet.Precompute()
		return tx
	}
	const blocks = 20
	for b := 1; b <= blocks; b++ {
		var txs []*protocol.Transaction
		if b == 1 {
			seed := &protocol.Transaction{ID: "seed"}
			for _, acct := range []string{"a", "b", "c"} {
				seed.RWSet.Writes = append(seed.RWSet.Writes, protocol.WriteItem{Key: chaincode.CheckingKey(acct), Value: []byte("100")})
			}
			txs = append(txs, seed)
		} else {
			txs = append(txs, payment(fmt.Sprintf("b%d-ab", b), "a", "b"), payment(fmt.Sprintf("b%d-bc", b), "b", "c"))
		}
		blk, err := source.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Block(state, tip, blk, nil, opts, tracer); err != nil {
			t.Fatal(err)
		}
	}
	d := tracer.Dump()
	perBlock := map[uint64]map[trace.Stage]int{}
	rescued, spans := 0, len(trace.Spans(d, trace.StageCheckpoint))+len(trace.Spans(d, trace.StageFold))
	for _, ev := range d.Events {
		switch ev.Stage {
		case trace.StageDeliver, trace.StageValidate, trace.StageCommit:
			if ev.TxID != "" {
				t.Fatalf("a %v event keyed by transaction %q", ev.Stage, ev.TxID)
			}
			if perBlock[ev.Block] == nil {
				perBlock[ev.Block] = map[trace.Stage]int{}
			}
			perBlock[ev.Block][ev.Stage]++
		case trace.StageRescue:
			rescued++
		}
	}
	if rescued != blocks-1 {
		t.Fatalf("%d rescue events, want one per payment block (%d)", rescued, blocks-1)
	}
	for b := uint64(1); b <= blocks; b++ {
		if got := perBlock[b]; len(got) != 3 || got[trace.StageDeliver] != 1 || got[trace.StageValidate] != 1 || got[trace.StageCommit] != 1 {
			t.Errorf("block %d stage events %v, want one deliver, validate and commit", b, got)
		}
	}
	if got, want := d.Recorded, uint64(3*blocks+rescued+spans); got != want {
		t.Errorf("ring recorded %d events over %d blocks, want %d: 3 a block, %d rescues, %d spans", got, blocks, want, rescued, spans)
	}
}
