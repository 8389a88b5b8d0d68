package sched

import (
	"fmt"
	"testing"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// mkTx builds a transaction with the given snapshot and rw keys. Read
// versions default to the snapshot block (position 1) for keys of the form
// "k@b" parsed as key k read at version (b,1); plain keys read version
// (snapshot,1) if snapshot > 0, else the zero version.
func mkTx(id string, snap uint64, reads, writes []string) *protocol.Transaction {
	tx := &protocol.Transaction{ID: protocol.TxID(id), SnapshotBlock: snap}
	for _, r := range reads {
		item := protocol.ReadItem{Key: r}
		if snap > 0 {
			item.Version = seqno.Commit(snap, 1)
		}
		tx.RWSet.Reads = append(tx.RWSet.Reads, item)
	}
	for _, w := range writes {
		tx.RWSet.Writes = append(tx.RWSet.Writes, protocol.WriteItem{Key: w, Value: []byte("v")})
	}
	return tx
}

func orderIDs(res FormationResult) []string {
	out := make([]string, len(res.Ordered))
	for i, tx := range res.Ordered {
		out[i] = string(tx.ID)
	}
	return out
}

func mustArrive(t *testing.T, s Scheduler, tx *protocol.Transaction, want protocol.ValidationCode) {
	t.Helper()
	got, err := s.OnArrival(tx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s OnArrival(%s) = %v want %v", s.System(), tx.ID, got, want)
	}
}

func TestNewConstructsAllSystems(t *testing.T) {
	for _, sys := range Systems() {
		s, err := New(sys, Options{})
		if err != nil {
			t.Fatalf("New(%s): %v", sys, err)
		}
		if s.System() != sys {
			t.Errorf("System() = %v want %v", s.System(), sys)
		}
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestFabricFIFO(t *testing.T) {
	f := NewFabric()
	for i := 0; i < 5; i++ {
		mustArrive(t, f, mkTx(fmt.Sprintf("t%d", i), 0, []string{"a"}, []string{"a"}), protocol.Valid)
	}
	res, err := f.OnBlockFormation()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(orderIDs(res)) != "[t0 t1 t2 t3 t4]" {
		t.Errorf("fabric reordered: %v", orderIDs(res))
	}
	if res.Block != 1 || !f.NeedsMVCCValidation() {
		t.Error("fabric block/validation flags wrong")
	}
	// Empty formation does not consume a block number.
	res2, _ := f.OnBlockFormation()
	if res2.Block != 2 || len(res2.Ordered) != 0 {
		t.Errorf("empty formation = %+v", res2)
	}
}

func TestReadsAcrossBlocks(t *testing.T) {
	tx := mkTx("t", 2, nil, nil)
	tx.RWSet.Reads = []protocol.ReadItem{
		{Key: "a", Version: seqno.Commit(1, 1)},
		{Key: "b", Version: seqno.Commit(2, 1)},
	}
	if ReadsAcrossBlocks(tx) {
		t.Error("reads at or before snapshot flagged as cross-block")
	}
	tx.RWSet.Reads = append(tx.RWSet.Reads, protocol.ReadItem{Key: "c", Version: seqno.Commit(3, 1)})
	if !ReadsAcrossBlocks(tx) {
		t.Error("read from block 3 against snapshot 2 not flagged")
	}
}

func TestFabricPPReordersReadersBeforeWriters(t *testing.T) {
	f := NewFabricPP(Options{})
	// Arrival order: writer first, reader second. The reader reads key "a"
	// which the writer overwrites; reordering must place the reader first.
	mustArrive(t, f, mkTx("writer", 1, nil, []string{"a"}), protocol.Valid)
	mustArrive(t, f, mkTx("reader", 1, []string{"a"}, []string{"b"}), protocol.Valid)
	res, _ := f.OnBlockFormation()
	if fmt.Sprint(orderIDs(res)) != "[reader writer]" {
		t.Errorf("order = %v", orderIDs(res))
	}
	if len(res.DroppedTxs) != 0 {
		t.Errorf("dropped = %v", res.DroppedTxs)
	}
}

func TestFabricPPDropsCycle(t *testing.T) {
	f := NewFabricPP(Options{})
	mustArrive(t, f, mkTx("t1", 1, []string{"a"}, []string{"b"}), protocol.Valid)
	mustArrive(t, f, mkTx("t2", 1, []string{"b"}, []string{"a"}), protocol.Valid)
	res, _ := f.OnBlockFormation()
	if len(res.Ordered)+len(res.DroppedTxs) != 2 || len(res.DroppedTxs) != 1 {
		t.Fatalf("ordered=%v dropped=%v", orderIDs(res), res.DroppedTxs)
	}
	if res.DroppedTxs[0].Code != protocol.AbortReorderCycle {
		t.Errorf("drop code = %v", res.DroppedTxs[0].Code)
	}
}

func TestFabricPPThreeWayCycleKeepsMajority(t *testing.T) {
	f := NewFabricPP(Options{})
	// t1 -> t2 -> t3 -> t1: dropping one transaction must fix it.
	mustArrive(t, f, mkTx("t1", 1, []string{"a"}, []string{"b"}), protocol.Valid)
	mustArrive(t, f, mkTx("t2", 1, []string{"b"}, []string{"c"}), protocol.Valid)
	mustArrive(t, f, mkTx("t3", 1, []string{"c"}, []string{"a"}), protocol.Valid)
	res, _ := f.OnBlockFormation()
	if len(res.Ordered) != 2 || len(res.DroppedTxs) != 1 {
		t.Fatalf("ordered=%v dropped=%d", orderIDs(res), len(res.DroppedTxs))
	}
}

func TestFabricPPIndependentTxsKeepFIFO(t *testing.T) {
	f := NewFabricPP(Options{})
	for i := 0; i < 4; i++ {
		mustArrive(t, f, mkTx(fmt.Sprintf("t%d", i), 1, []string{fmt.Sprintf("r%d", i)}, []string{fmt.Sprintf("w%d", i)}), protocol.Valid)
	}
	res, _ := f.OnBlockFormation()
	if fmt.Sprint(orderIDs(res)) != "[t0 t1 t2 t3]" {
		t.Errorf("independent txs reordered: %v", orderIDs(res))
	}
}

func TestFoccSConcurrentWWAborted(t *testing.T) {
	f := NewFoccS(Options{})
	mustArrive(t, f, mkTx("w1", 0, nil, []string{"hot"}), protocol.Valid)
	// Pending-pending ww.
	mustArrive(t, f, mkTx("w2", 0, nil, []string{"hot"}), protocol.AbortConcurrentWW)
	f.OnBlockFormation() // block 1 commits w1
	// Committed-concurrent ww: snapshot 0 predates w1's commit.
	mustArrive(t, f, mkTx("w3", 0, nil, []string{"hot"}), protocol.AbortConcurrentWW)
	// Non-concurrent ww: snapshot 1 is after w1's commit.
	mustArrive(t, f, mkTx("w4", 1, nil, []string{"hot"}), protocol.Valid)
}

func TestFoccSSingleAntiRWAllowed(t *testing.T) {
	// One rw conflict alone is not dangerous: Focc-s commits transactions
	// Fabric would abort (the Figure 12 crossover at high read-hot ratios).
	f := NewFoccS(Options{})
	mustArrive(t, f, mkTx("w1", 0, nil, []string{"k"}), protocol.Valid)
	f.OnBlockFormation()
	mustArrive(t, f, mkTx("staleReader", 0, []string{"k"}, []string{"private"}), protocol.Valid)
	if f.NeedsMVCCValidation() {
		t.Error("focc-s must skip MVCC validation")
	}
}

func TestFoccSDangerousStructureAborted(t *testing.T) {
	f := NewFoccS(Options{})
	mustArrive(t, f, mkTx("w1", 0, nil, []string{"k"}), protocol.Valid)
	f.OnBlockFormation() // block 1
	// t2: stale read of k (anti-rw out edge), writes z.
	mustArrive(t, f, mkTx("t2", 0, []string{"k"}, []string{"z"}), protocol.Valid)
	// t3 reads z (pending write of t2): t3 --rw--> t2 and t2 already has an
	// anti-rw out edge => t2 becomes a pivot with an anti-rw: abort t3.
	mustArrive(t, f, mkTx("t3", 1, []string{"z"}, nil), protocol.AbortDangerousStructure)
}

func TestFoccSPivotWithoutAntiAllowed(t *testing.T) {
	// Two consecutive c-rw conflicts with no anti-rw are not dangerous
	// under the paper's refinement ("with at least one anti-rw").
	f := NewFoccS(Options{})
	mustArrive(t, f, mkTx("A", 0, []string{"x"}, []string{"y"}), protocol.Valid)
	mustArrive(t, f, mkTx("B", 0, []string{"y"}, []string{"q1"}), protocol.Valid) // B -> A in-edge on A? B reads y, A writes y: B --rw--> A
	mustArrive(t, f, mkTx("C", 0, []string{"q2"}, []string{"x"}), protocol.Valid) // A --rw--> C on x
	res, _ := f.OnBlockFormation()
	if len(res.Ordered) != 3 {
		t.Errorf("committed %d of 3", len(res.Ordered))
	}
}

func TestFoccSWriteSkewPairAborted(t *testing.T) {
	// The classic write-skew: T1 reads a / writes b, T2 reads b / writes a,
	// both pending. T2's arrival gives T2 an anti-rw out edge (to T1, which
	// commits first in FIFO order) and an incoming rw from T1 — a dangerous
	// structure. Regression test for the end-to-end serializability hole
	// where pending-writer edges were not classified as anti-rw.
	f := NewFoccS(Options{})
	mustArrive(t, f, mkTx("t1", 0, []string{"a"}, []string{"b"}), protocol.Valid)
	mustArrive(t, f, mkTx("t2", 0, []string{"b"}, []string{"a"}), protocol.AbortDangerousStructure)
}

func TestFoccSStaleSnapshotAborted(t *testing.T) {
	f := NewFoccS(Options{MaxSpan: 2})
	for b := 0; b < 4; b++ {
		mustArrive(t, f, mkTx(fmt.Sprintf("filler%d", b), uint64(b), nil, []string{fmt.Sprintf("f%d", b)}), protocol.Valid)
		f.OnBlockFormation()
	}
	// nextBlock = 5, horizon = 3: snapshot 2 is stale.
	mustArrive(t, f, mkTx("old", 2, []string{"x"}, nil), protocol.AbortStaleSnapshot)
}

func TestFoccLMovesDoomedToBack(t *testing.T) {
	f := NewFoccL(Options{})
	// Feedback: key "hot" last validly written at (1,1).
	committedTx := mkTx("w", 1, nil, []string{"hot"})
	f.OnBlockCommitted(1, []*protocol.Transaction{committedTx}, []protocol.ValidationCode{protocol.Valid})

	doomed := mkTx("doomed", 0, []string{"hot"}, []string{"a"})
	doomed.RWSet.Reads[0].Version = seqno.Seq{} // read the pre-block absence: stale
	fresh := mkTx("fresh", 1, []string{"hot"}, []string{"b"})
	fresh.RWSet.Reads[0].Version = seqno.Commit(1, 1)

	mustArrive(t, f, doomed, protocol.Valid) // focc-l never filters
	mustArrive(t, f, fresh, protocol.Valid)
	res, _ := f.OnBlockFormation()
	if fmt.Sprint(orderIDs(res)) != "[fresh doomed]" {
		t.Errorf("order = %v", orderIDs(res))
	}
	if len(res.DroppedTxs) != 0 {
		t.Error("focc-l must not drop transactions")
	}
	if !f.NeedsMVCCValidation() {
		t.Error("focc-l relies on MVCC validation")
	}
}

func TestFoccLInvalidFeedbackIgnored(t *testing.T) {
	f := NewFoccL(Options{})
	tx := mkTx("w", 1, nil, []string{"hot"})
	f.OnBlockCommitted(1, []*protocol.Transaction{tx}, []protocol.ValidationCode{protocol.MVCCConflict})
	if len(f.committed) != 0 {
		t.Error("aborted transaction's writes tracked as committed")
	}
}

func TestFoccLKeepsCycleMembersInBlock(t *testing.T) {
	f := NewFoccL(Options{})
	mustArrive(t, f, mkTx("t1", 1, []string{"a"}, []string{"b"}), protocol.Valid)
	mustArrive(t, f, mkTx("t2", 1, []string{"b"}, []string{"a"}), protocol.Valid)
	res, _ := f.OnBlockFormation()
	if len(res.Ordered) != 2 || len(res.DroppedTxs) != 0 {
		t.Errorf("focc-l dropped cycle members: ordered=%v", orderIDs(res))
	}
}

func TestSharpSchedulerDelegation(t *testing.T) {
	s := NewSharp(Options{})
	mustArrive(t, s, mkTx("t1", 0, []string{"a"}, []string{"b"}), protocol.Valid)
	mustArrive(t, s, mkTx("t2", 0, []string{"b"}, []string{"a"}), protocol.AbortCycle)
	if s.PendingCount() != 1 {
		t.Errorf("pending = %d", s.PendingCount())
	}
	res, err := s.OnBlockFormation()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(orderIDs(res)) != "[t1]" || res.Block != 1 {
		t.Errorf("res = %v block %d", orderIDs(res), res.Block)
	}
	if s.NeedsMVCCValidation() {
		t.Error("sharp must skip MVCC validation")
	}
	if s.Manager().Stats().AbortCycle != 1 {
		t.Error("manager stats not wired")
	}
}

func TestSharpReordersAcrossArrivalOrder(t *testing.T) {
	s := NewSharp(Options{})
	// Same Figure 7b shape as the core test, through the Scheduler surface.
	mustArrive(t, s, mkTx("t1", 0, []string{"k1"}, []string{"k2"}), protocol.Valid)
	mustArrive(t, s, mkTx("t2", 0, nil, []string{"k1", "A"}), protocol.Valid)
	mustArrive(t, s, mkTx("t3", 0, []string{"k2"}, []string{"A"}), protocol.Valid)
	res, _ := s.OnBlockFormation()
	ids := orderIDs(res)
	if len(ids) != 3 {
		t.Fatalf("committed %v", ids)
	}
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["t3"] < pos["t1"] && pos["t1"] < pos["t2"]) {
		t.Errorf("order %v violates t3<t1<t2", ids)
	}
}

func TestSchedulerDeterminismAcrossReplicas(t *testing.T) {
	// Every scheduler must be a pure function of the consensus stream.
	stream := func() []*protocol.Transaction {
		var txs []*protocol.Transaction
		for i := 0; i < 120; i++ {
			r := fmt.Sprintf("k%d", (i*7)%5)
			w := fmt.Sprintf("k%d", (i*3)%5)
			txs = append(txs, mkTx(fmt.Sprintf("t%d", i), 0, []string{r}, []string{w}))
		}
		return txs
	}
	for _, sys := range Systems() {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			run := func() []string {
				s, err := New(sys, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var log []string
				for i, tx := range stream() {
					code, err := s.OnArrival(tx)
					if err != nil {
						t.Fatal(err)
					}
					log = append(log, fmt.Sprintf("%s=%v", tx.ID, code))
					if (i+1)%30 == 0 {
						res, err := s.OnBlockFormation()
						if err != nil {
							t.Fatal(err)
						}
						log = append(log, fmt.Sprintf("b%d:%v|dropped=%d", res.Block, orderIDs(res), len(res.DroppedTxs)))
					}
				}
				return log
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s diverged at %d: %q vs %q", sys, i, a[i], b[i])
				}
			}
		})
	}
}

func TestTimingAccounting(t *testing.T) {
	s := NewSharp(Options{})
	mustArrive(t, s, mkTx("t", 0, []string{"a"}, []string{"b"}), protocol.Valid)
	if _, err := s.OnBlockFormation(); err != nil {
		t.Fatal(err)
	}
	tm := s.Timing()
	if tm.Arrivals != 1 || tm.Formations != 1 {
		t.Errorf("timing = %+v", tm)
	}
	if tm.MeanArrivalUS() < 0 || tm.MeanFormationMS() < 0 {
		t.Error("negative timing")
	}
	var zero Timing
	if zero.MeanArrivalUS() != 0 || zero.MeanFormationMS() != 0 {
		t.Error("zero-value timing should report zeros")
	}
}

func TestSortTxIDsHelper(t *testing.T) {
	txs := []*protocol.Transaction{mkTx("b", 0, nil, nil), mkTx("a", 0, nil, nil)}
	if got := sortTxIDs(txs); fmt.Sprint(got) != "[a b]" {
		t.Errorf("sortTxIDs = %v", got)
	}
}

// driveChurn pushes a rotating-key-space stream through a scheduler,
// cutting a block every blockSize arrivals, and returns a decision log
// (admission codes + emitted block contents) plus the total distinct keys.
func driveChurn(t *testing.T, s Scheduler, blocks, blockSize int) ([]string, int) {
	t.Helper()
	var log []string
	height := uint64(0)
	distinct := map[string]bool{}
	n := 0
	for b := 0; b < blocks; b++ {
		for i := 0; i < blockSize; i++ {
			r := fmt.Sprintf("g%d:k%d", b, i%6)
			w := fmt.Sprintf("g%d:k%d", b, (i+1)%6)
			distinct[r], distinct[w] = true, true
			tx := mkTx(fmt.Sprintf("t%d", n), height, []string{r}, []string{w})
			code, err := s.OnArrival(tx)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("%d:%v", n, code))
			n++
		}
		res, err := s.OnBlockFormation()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ordered) > 0 {
			height = res.Block
		}
		log = append(log, fmt.Sprint(orderIDs(res)))
		codes := make([]protocol.ValidationCode, len(res.Ordered))
		for i := range codes {
			codes[i] = protocol.Valid
		}
		s.OnBlockCommitted(res.Block, res.Ordered, codes)
	}
	return log, len(distinct)
}

// TestCompactionBoundsResidentKeys runs every key-interning scheduler over a
// churn workload with compaction on: resident keys must stay far below the
// distinct-key universe, and for the schedulers whose liveness set is
// exactly "keys with retained entries" (sharp, focc-s, fabric++) the
// decision log must be bit-identical to an append-only run.
func TestCompactionBoundsResidentKeys(t *testing.T) {
	const blocks, blockSize = 50, 8
	for _, sys := range []System{SystemSharp, SystemFoccS, SystemFabricPP, SystemFoccL} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			compacting, err := New(sys, Options{MaxSpan: 4, CompactEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			log, distinct := driveChurn(t, compacting, blocks, blockSize)
			resident := compacting.ResidentKeys()
			if resident == 0 && sys != SystemFabricPP {
				t.Fatalf("no resident keys tracked")
			}
			if bound := distinct / 4; resident > bound {
				t.Fatalf("resident keys %d not bounded (distinct %d, want <= %d)", resident, distinct, bound)
			}
			appendOnly, err := New(sys, Options{MaxSpan: 4})
			if err != nil {
				t.Fatal(err)
			}
			log0, _ := driveChurn(t, appendOnly, blocks, blockSize)
			if appendOnly.ResidentKeys() <= resident {
				t.Fatalf("append-only run did not grow past compacting run: %d vs %d",
					appendOnly.ResidentKeys(), resident)
			}
			// Focc-l's compaction narrows the doomed-detection window by
			// design; the all-Valid feedback here leaves no stale reads, so
			// its log matches too — but the invariant we pin is only for the
			// retained-entry liveness schedulers.
			for i := range log0 {
				if log[i] != log0[i] {
					if sys == SystemFoccL {
						t.Skipf("focc-l decision drift at %d (windowed doomed detection)", i)
					}
					t.Fatalf("decisions diverged at step %d: %q vs %q", i, log[i], log0[i])
				}
			}
		})
	}
}
