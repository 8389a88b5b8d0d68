package commit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/conflict"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
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

// TestParallelMatchesSequential is the core refactor-safety property: for
// randomized contended blocks, the parallel validator produces exactly the
// sequential reference's codes and final state.
func TestParallelMatchesSequential(t *testing.T) {
	env := newTestEnv(t)
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		db := seedState(t, 8)
		blk := randomBlock(t, env, db, rng, 2+rng.Intn(30), 8)

		seqDB, parDB := db.Clone(), db.Clone()
		wantCodes, err := validation.ValidateAndCommit(seqDB, blk, validation.Options{
			MVCC: true, MSP: env.msp, Policy: env.policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := ValidateBlock(parDB, blk, Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}})
		if err := parDB.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
			t.Fatal(err)
		}
		for i := range wantCodes {
			if res.Codes[i] != wantCodes[i] {
				t.Fatalf("trial %d: tx %d code = %v want %v", trial, i, res.Codes[i], wantCodes[i])
			}
		}
		if seqDB.StateFingerprint() != parDB.StateFingerprint() {
			t.Fatalf("trial %d: state diverged", trial)
		}
		if seqDB.Height() != parDB.Height() {
			t.Fatalf("trial %d: heights diverged", trial)
		}
	}
}

// TestParallelMatchesSequentialNoMVCC covers the Sharp/Focc-s fast path:
// endorsement checks only, no conflict partition.
func TestParallelMatchesSequentialNoMVCC(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewSource(7))
	db := seedState(t, 8)
	blk := randomBlock(t, env, db, rng, 20, 8)

	seqDB, parDB := db.Clone(), db.Clone()
	wantCodes, err := validation.ValidateAndCommit(seqDB, blk, validation.Options{
		MSP: env.msp, Policy: env.policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := ValidateBlock(parDB, blk, Options{Options: validation.Options{MSP: env.msp, Policy: env.policy}})
	if res.Groups != 0 {
		t.Errorf("no-MVCC path partitioned into %d groups", res.Groups)
	}
	if err := parDB.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
		t.Fatal(err)
	}
	for i := range wantCodes {
		if res.Codes[i] != wantCodes[i] {
			t.Fatalf("tx %d code = %v want %v", i, res.Codes[i], wantCodes[i])
		}
	}
	if seqDB.StateFingerprint() != parDB.StateFingerprint() {
		t.Fatal("state diverged")
	}
}

func TestPartitionByConflict(t *testing.T) {
	tx := func(id string, reads ...string) *protocol.Transaction {
		out := &protocol.Transaction{ID: protocol.TxID(id)}
		for _, k := range reads {
			out.RWSet.Reads = append(out.RWSet.Reads, protocol.ReadItem{Key: k})
		}
		return out
	}
	withWrites := func(t0 *protocol.Transaction, keys ...string) *protocol.Transaction {
		for _, k := range keys {
			t0.RWSet.Writes = append(t0.RWSet.Writes, protocol.WriteItem{Key: k, Value: []byte("v")})
		}
		return t0
	}
	txs := []*protocol.Transaction{
		withWrites(tx("a", "x"), "x"), // group {a, c} via x
		withWrites(tx("b", "y"), "z"), // group {b, d} via z
		withWrites(tx("c"), "x"),      // joins a
		withWrites(tx("d", "z"), "w"), // joins b
		withWrites(tx("e", "q"), "q"), // alone
		tx("f", "x", "z"),             // bridges both → one merged group
	}
	// f reads x and z, merging {a,c} and {b,d} into one group of 5, plus {e}.
	codes := make([]protocol.ValidationCode, len(txs))
	valid := func(i int) bool { return codes[i] == protocol.Valid }
	groups := conflict.Partition(txs, valid)
	if len(groups) != 2 {
		t.Fatalf("groups = %d (%v)", len(groups), groups)
	}
	sizes := map[int]bool{len(groups[0]): true, len(groups[1]): true}
	if !sizes[5] || !sizes[1] {
		t.Fatalf("group sizes = %v", groups)
	}
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				t.Fatalf("group not in block order: %v", g)
			}
		}
	}
	// An endorsement-failed transaction leaves the partition entirely.
	codes[5] = protocol.EndorsementFailure
	groups = conflict.Partition(txs, valid)
	if len(groups) != 3 {
		t.Fatalf("groups after exclusion = %d (%v)", len(groups), groups)
	}
}

// TestPartitionHotReadOnlyKey: a key every transaction reads but none
// writes keeps its committed version for the whole block, so it must not
// serialize the partition.
func TestPartitionHotReadOnlyKey(t *testing.T) {
	const n = 16
	txs := make([]*protocol.Transaction, n)
	for i := range txs {
		txs[i] = &protocol.Transaction{
			ID: protocol.TxID(fmt.Sprintf("t%d", i)),
			RWSet: protocol.RWSet{
				Reads:  []protocol.ReadItem{{Key: "config"}}, // hot, never written
				Writes: []protocol.WriteItem{{Key: fmt.Sprintf("own%d", i), Value: []byte("v")}},
			},
		}
	}
	all := func(int) bool { return true }
	groups := conflict.Partition(txs, all)
	if len(groups) != n {
		t.Fatalf("hot read-only key collapsed partition to %d groups, want %d", len(groups), n)
	}
	// But one writer of the hot key couples every reader.
	txs[0].RWSet.Writes = append(txs[0].RWSet.Writes, protocol.WriteItem{Key: "config", Value: []byte("v2")})
	groups = conflict.Partition(txs, all)
	if len(groups) != 1 {
		t.Fatalf("written hot key split into %d groups, want 1", len(groups))
	}
}

func TestCommitterPipeline(t *testing.T) {
	env := newTestEnv(t)
	source, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	peerChain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var committed []uint64
	c := New(Config{
		Name:       "peer-test",
		State:      state,
		Chain:      peerChain,
		Validation: Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}},
		OnCommit: func(blk *ledger.Block, codes []protocol.ValidationCode) {
			mu.Lock()
			committed = append(committed, blk.Header.Number)
			mu.Unlock()
		},
		OnError: func(err error) { t.Errorf("committer error: %v", err) },
	})
	const blocks = 10
	for b := 0; b < blocks; b++ {
		var txs []*protocol.Transaction
		for i := 0; i < 4; i++ {
			tx := &protocol.Transaction{
				ID: protocol.TxID(fmt.Sprintf("b%d-t%d", b, i)),
				RWSet: protocol.RWSet{Writes: []protocol.WriteItem{
					{Key: fmt.Sprintf("key-%d-%d", b, i), Value: []byte("v")},
				}},
			}
			env.sign(tx)
			txs = append(txs, tx)
		}
		blk, err := source.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Deliver(blk)
	}
	c.Close()
	if !c.Idle() {
		t.Error("closed committer not idle")
	}
	if len(committed) != blocks {
		t.Fatalf("committed %d blocks, want %d", len(committed), blocks)
	}
	for i, n := range committed {
		if n != uint64(i+1) {
			t.Fatalf("commit order %v", committed)
		}
	}
	if state.Height() != blocks {
		t.Errorf("height = %d", state.Height())
	}
	if err := peerChain.Verify(); err != nil {
		t.Error(err)
	}
	st := c.Stats()
	if st.BlocksCommitted.Value() != blocks {
		t.Errorf("BlocksCommitted = %d", st.BlocksCommitted.Value())
	}
	if st.TxsValidated.Value() != blocks*4 {
		t.Errorf("TxsValidated = %d", st.TxsValidated.Value())
	}
	if st.CommitLatencyNS.Count() != blocks {
		t.Errorf("latency samples = %d", st.CommitLatencyNS.Count())
	}
	if st.QueueDepth.Value() != 0 {
		t.Errorf("queue depth = %d", st.QueueDepth.Value())
	}
}

// TestCommitterStatsHDR pins the always-on stats to the lock-free HDR
// histogram's contract: one sample per block, counted exactly, and latency
// quantiles within the bucket resolution (1/32 ≈ 3.2 %) of an exact
// reference. The reference is rebuilt from the histogram's own exact running
// sum: blocks go through one at a time, so each sum delta is that block's
// recorded latency.
func TestCommitterStatsHDR(t *testing.T) {
	env := newTestEnv(t)
	source, _ := ledger.NewChain(nil)
	state, _ := statedb.New(statedb.Options{})
	peerChain, _ := ledger.NewChain(nil)
	c := New(Config{
		Name:       "peer-stats",
		State:      state,
		Chain:      peerChain,
		Validation: Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}},
		OnError:    func(err error) { t.Errorf("committer error: %v", err) },
	})
	defer c.Close()
	st := c.Stats()
	const blocks = 100 // q·blocks is integral for 0.5 and 0.99: both quantile conventions pick the same rank
	var exact metrics.Histogram
	var sum float64
	for b := 0; b < blocks; b++ {
		var txs []*protocol.Transaction
		for i := 0; i <= b%3; i++ { // 1–3 disjoint writers: 1–3 conflict groups
			tx := &protocol.Transaction{
				ID: protocol.TxID(fmt.Sprintf("b%d-t%d", b, i)),
				RWSet: protocol.RWSet{Writes: []protocol.WriteItem{
					{Key: fmt.Sprintf("key-%d-%d", b, i), Value: []byte("v")},
				}},
			}
			env.sign(tx)
			txs = append(txs, tx)
		}
		blk, err := source.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Deliver(blk)
		for !c.Idle() {
			time.Sleep(50 * time.Microsecond)
		}
		if got := st.CommitLatencyNS.Count(); got != uint64(b+1) {
			t.Fatalf("after block %d: %d latency samples", b+1, got)
		}
		if got := st.GroupsPerBlock.Count(); got != uint64(b+1) {
			t.Fatalf("after block %d: %d group samples", b+1, got)
		}
		now := math.Round(st.CommitLatencyNS.Mean() * float64(b+1))
		exact.Add(now - sum)
		sum = now
	}
	if st.RescueRoundsPerBlock.Count() != 0 {
		t.Errorf("rescue rounds sampled %d times with rescue off", st.RescueRoundsPerBlock.Count())
	}
	if lo, hi := st.GroupsPerBlock.Quantile(0.01), st.GroupsPerBlock.Quantile(1); lo != 1 || hi != 3 {
		t.Errorf("groups per block span [%d, %d], want [1, 3]", lo, hi)
	}
	got := st.CommitLatencyNS.Quantiles(0.5, 0.99)
	want := exact.Quantiles(0.5, 0.99)
	for i, name := range []string{"p50", "p99"} {
		if want[i] <= 0 {
			t.Fatalf("%s reference latency %v ns", name, want[i])
		}
		if rel := math.Abs(float64(got[i])-want[i]) / want[i]; rel > 1.0/32 {
			t.Errorf("%s = %d ns, exact %v ns: off by %.1f%%, bucket bound is 3.2%%", name, got[i], want[i], 100*rel)
		}
	}
}

func TestCommitterReportsPoisonedBlock(t *testing.T) {
	state, _ := statedb.New(statedb.Options{})
	chain, _ := ledger.NewChain(nil)
	errs := make(chan error, 1)
	c := New(Config{
		Name: "peerX", State: state, Chain: chain,
		OnError: func(err error) { errs <- err },
	})
	// A block whose data hash does not cover its transactions cannot append.
	poisoned := &ledger.Block{
		Header:       ledger.Header{Number: 1, DataHash: ledger.DataHash(nil)},
		Transactions: []*protocol.Transaction{{ID: "x"}},
	}
	c.Deliver(poisoned)
	c.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("nil error")
		}
	default:
		t.Fatal("poisoned block did not surface an error")
	}
	if !c.Failed() {
		t.Error("committer not marked failed")
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
	open := func() (*kvstore.DB, *statedb.DB, *ledger.Chain) {
		store, err := kvstore.Open(kvstore.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		state, err := statedb.New(statedb.Options{Backing: store})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ledger.NewChain(store)
		if err != nil {
			t.Fatal(err)
		}
		return store, state, chain
	}
	store, state, chain := open()
	c := New(Config{
		Name: "durable", State: state, Chain: chain,
		Validation: Options{Options: validation.Options{MVCC: true, MSP: env.msp, Policy: env.policy}},
		OnError:    func(err error) { t.Errorf("commit: %v", err) },
	})
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
		c.Deliver(blk)
		for !c.Idle() {
			time.Sleep(time.Millisecond)
		}
	}
	deliver(seal(1))
	records, size := walRecords(t, dir)
	if records != 1 {
		t.Fatalf("block 1 left %d log records, want 1", records)
	}
	deliver(seal(2))
	records2, size2 := walRecords(t, dir)
	if records2 != 2 {
		t.Fatalf("block 2 added %d log records, want 1", records2-records)
	}
	rec := ledger.Record(mustGet(t, chain, 2))
	if grew := size2 - size; grew < len(rec.Value)+100*len("k00b2") {
		t.Errorf("the log grew %d bytes: too few for the block record (%d) plus 100 writes", grew, len(rec.Value))
	}
	c.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// What that one record holds is everything: a reopened store has block
	// 2 with its verdicts, state at height 2, and the block's writes.
	store, state, chain = open()
	defer store.Close()
	if blk := mustGet(t, chain, 2); blk.CommittedCount() != 100 {
		t.Errorf("stored block 2 carries %d committed verdicts, want 100", blk.CommittedCount())
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
