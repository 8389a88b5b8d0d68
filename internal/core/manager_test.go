package core

import (
	"fmt"
	"testing"

	"fabricsharp/internal/protocol"
)

// arrive is a test helper asserting the arrival outcome.
func arrive(t *testing.T, m *Manager, id string, snap uint64, reads, writes []string, want protocol.ValidationCode) {
	t.Helper()
	got, err := m.OnArrival(TxID(id), snap, reads, writes)
	if err != nil {
		t.Fatalf("OnArrival(%s): %v", id, err)
	}
	if got != want {
		t.Fatalf("OnArrival(%s) = %v, want %v", id, got, want)
	}
}

// form is a test helper forming a block and returning the order as strings.
func form(t *testing.T, m *Manager) []string {
	t.Helper()
	ids, _ := m.OnBlockFormation()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func indexOf(s []string, x string) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	return -1
}

func TestNoConflictAllCommit(t *testing.T) {
	m := NewManager(Options{})
	arrive(t, m, "t1", 0, []string{"a"}, []string{"b"}, protocol.Valid)
	arrive(t, m, "t2", 0, []string{"c"}, []string{"d"}, protocol.Valid)
	order := form(t, m)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	if m.NextBlock() != 2 {
		t.Errorf("NextBlock = %d", m.NextBlock())
	}
}

func TestTwoTxnUnreorderableCycle(t *testing.T) {
	// Figure 7a's essence: T1 reads a / writes b, T2 reads b / writes a.
	// Their rw and anti-rw conflicts form a cycle with no c-ww; Theorem 2
	// says no reordering fixes it, so the second arrival is dropped.
	m := NewManager(Options{})
	arrive(t, m, "t1", 0, []string{"a"}, []string{"b"}, protocol.Valid)
	arrive(t, m, "t2", 0, []string{"b"}, []string{"a"}, protocol.AbortCycle)
	order := form(t, m)
	if fmt.Sprint(order) != "[t1]" {
		t.Errorf("order = %v", order)
	}
}

func TestReorderableWWCycleCommitsAll(t *testing.T) {
	// Figure 7b: a cycle whose only "backward" conflict is a c-ww between
	// pending transactions is reorderable. Edges at arrival:
	//   T1 -> T2 (rw on k1), T3 -> T1 (rw on k2); T2 and T3 both write A
	//   (c-ww, deliberately ignored on arrival, restored after ordering).
	m := NewManager(Options{})
	arrive(t, m, "t1", 0, []string{"k1"}, []string{"k2"}, protocol.Valid)
	arrive(t, m, "t2", 0, nil, []string{"k1", "A"}, protocol.Valid)
	arrive(t, m, "t3", 0, []string{"k2"}, []string{"A", "t3only"}, protocol.Valid)
	order := form(t, m)
	if len(order) != 3 {
		t.Fatalf("want all three committed, got %v", order)
	}
	// The commit order must respect T3 -> T1 -> T2.
	if !(indexOf(order, "t3") < indexOf(order, "t1") && indexOf(order, "t1") < indexOf(order, "t2")) {
		t.Errorf("order %v violates dependencies t3<t1<t2", order)
	}
}

func TestRestoredWWDetectsLaterCycle(t *testing.T) {
	// Continuation of the Figure 7b scenario: the restored ww edge
	// (T3 -> T2 on key A) must participate in later cycle checks
	// (Section 3.4: "future unserializable transactions may encounter a
	// cycle with a c-ww dependency which involves committed transactions").
	//
	// T4 reads "t3only" from the pre-block snapshot (anti-rw: T4 -> T3) and
	// overwrites A (ww: T2 -> T4, T2 being the last writer). The cycle
	// T2 -> T4 -> T3 -> (restored ww) T2 closes only through the restored
	// edge.
	m := NewManager(Options{})
	arrive(t, m, "t1", 0, []string{"k1"}, []string{"k2"}, protocol.Valid)
	arrive(t, m, "t2", 0, nil, []string{"k1", "A"}, protocol.Valid)
	arrive(t, m, "t3", 0, []string{"k2"}, []string{"A", "t3only"}, protocol.Valid)
	order := form(t, m) // block 1; order t3 < t1 < t2 so CW.Last(A) == t2
	if indexOf(order, "t2") != 2 {
		t.Fatalf("precondition: t2 must commit last, got %v", order)
	}
	arrive(t, m, "t4", 0, []string{"t3only"}, []string{"A"}, protocol.AbortCycle)
}

func TestLostUpdateAborted(t *testing.T) {
	// Read-modify-write racing a committed writer of the same key: the
	// committed writer is both a successor (anti-rw on the read) and a
	// predecessor (ww on the write) — an unreorderable 2-cycle.
	m := NewManager(Options{})
	arrive(t, m, "writer", 0, nil, []string{"x"}, protocol.Valid)
	form(t, m) // block 1 commits writer
	arrive(t, m, "rmw", 0, []string{"x"}, []string{"x"}, protocol.AbortCycle)
}

func TestAntiRWAloneIsSerializable(t *testing.T) {
	// The Figure 15 "antiRW" gain: a transaction with a stale read but no
	// conflicting write serializes before the committed writer. Vanilla
	// Fabric's validation would abort it; Sharp commits it.
	m := NewManager(Options{})
	arrive(t, m, "writer", 0, nil, []string{"x"}, protocol.Valid)
	form(t, m) // block 1
	arrive(t, m, "staleReader", 0, []string{"x"}, []string{"y"}, protocol.Valid)
	order := form(t, m)
	if fmt.Sprint(order) != "[staleReader]" {
		t.Errorf("stale reader not committed: %v", order)
	}
}

func TestSnapshotConsistentCrossBlockRead(t *testing.T) {
	// Figure 3a, Txn1: reads A (written in block 1) and B (written in
	// block 2) against snapshot 2 — snapshot consistent, commits. Fabric++
	// would have early-aborted it for reading across blocks.
	m := NewManager(Options{})
	arrive(t, m, "initA", 0, nil, []string{"A"}, protocol.Valid)
	form(t, m) // block 1
	arrive(t, m, "initB", 0, nil, []string{"B"}, protocol.Valid)
	form(t, m) // block 2 (writes B)
	arrive(t, m, "txn1", 2, []string{"A", "B"}, []string{"C"}, protocol.Valid)
	order := form(t, m)
	if fmt.Sprint(order) != "[txn1]" {
		t.Errorf("snapshot-consistent reader aborted: %v", order)
	}

	// Figure 3a, Txn2: reads B against snapshot 1, but B was rewritten in
	// block 2 and Txn2 also derives a write to B's co-written key C — make
	// it the inconsistent variant: reads B@1 and writes B. Lost update.
	arrive(t, m, "txn2", 1, []string{"B"}, []string{"B"}, protocol.AbortCycle)
}

func TestStaleSnapshotAborted(t *testing.T) {
	m := NewManager(Options{MaxSpan: 3})
	for i := 0; i < 5; i++ {
		arrive(t, m, fmt.Sprintf("f%d", i), uint64(i), nil, []string{"k"}, protocol.Valid)
		form(t, m)
	}
	// nextBlock is now 6, horizon H = 3: snapshots <= 3 are stale.
	arrive(t, m, "tooOld", 3, []string{"k"}, nil, protocol.AbortStaleSnapshot)
	arrive(t, m, "okAge", 4, nil, nil, protocol.Valid)
	if got := m.Stats().AbortStale; got != 1 {
		t.Errorf("AbortStale = %d", got)
	}
	if min := m.MinRetainedSnapshot(); min != 4 {
		t.Errorf("MinRetainedSnapshot = %d want 4", min)
	}
}

func TestDuplicateAborted(t *testing.T) {
	m := NewManager(Options{})
	arrive(t, m, "dup", 0, nil, []string{"k"}, protocol.Valid)
	arrive(t, m, "dup", 0, nil, []string{"k"}, protocol.AbortDuplicate)
	form(t, m)
	// Still a duplicate after commit, while the node remains in G.
	arrive(t, m, "dup", 0, nil, nil, protocol.AbortDuplicate)
}

func TestFutureSnapshotRejected(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.OnArrival("bad", 1, nil, nil); err == nil {
		t.Fatal("snapshot at the unformed block accepted")
	}
}

func TestEmptyFormationDoesNotAdvance(t *testing.T) {
	m := NewManager(Options{})
	ids, block := m.OnBlockFormation()
	if ids != nil || block != 1 {
		t.Fatalf("empty formation: %v %d", ids, block)
	}
	if m.NextBlock() != 1 {
		t.Error("empty formation consumed a block number")
	}
}

func TestPendingChainOrdering(t *testing.T) {
	// Pending reader must precede the pending writer it conflicts with
	// (rw), transitively across a chain.
	m := NewManager(Options{})
	arrive(t, m, "r1", 0, []string{"a"}, []string{"z1"}, protocol.Valid) // reads a
	arrive(t, m, "w1", 0, []string{"b"}, []string{"a"}, protocol.Valid)  // writes a, reads b
	arrive(t, m, "w2", 0, nil, []string{"b"}, protocol.Valid)            // writes b
	order := form(t, m)
	if !(indexOf(order, "r1") < indexOf(order, "w1") && indexOf(order, "w1") < indexOf(order, "w2")) {
		t.Errorf("order %v violates r1<w1<w2", order)
	}
}

func TestCrossBlockConcurrencyCycleViaCommitted(t *testing.T) {
	// Proposition 3 territory: dependencies spanning blocks. Pending T
	// reads k written by committed C1 after T's snapshot (T -> C1), and T
	// writes q that committed C1 read before (C1 -> T via rw recorded in
	// CR). Cycle through a committed transaction: unreorderable, because
	// C1's position is immutable (Lemma 1).
	m := NewManager(Options{})
	arrive(t, m, "c1", 0, []string{"q"}, []string{"k"}, protocol.Valid)
	form(t, m) // block 1 commits c1
	arrive(t, m, "t", 0, []string{"k"}, []string{"q"}, protocol.AbortCycle)
}

func TestBlockSpanStats(t *testing.T) {
	m := NewManager(Options{})
	arrive(t, m, "a", 0, nil, []string{"x1"}, protocol.Valid)
	form(t, m)                                                // block 1, span 1
	arrive(t, m, "b", 0, nil, []string{"x2"}, protocol.Valid) // snapshot 0, commits in block 2: span 2
	form(t, m)
	st := m.Stats()
	if st.SpanCount != 2 || st.SpanSum != 3 {
		t.Errorf("span stats = %d/%d want 3/2", st.SpanSum, st.SpanCount)
	}
	if st.MeanSpan() != 1.5 {
		t.Errorf("MeanSpan = %v", st.MeanSpan())
	}
}

func TestPruningBoundsGraph(t *testing.T) {
	m := NewManager(Options{MaxSpan: 4})
	for b := 0; b < 60; b++ {
		for j := 0; j < 5; j++ {
			id := fmt.Sprintf("t%d-%d", b, j)
			key := fmt.Sprintf("k%d", j)
			arrive(t, m, id, uint64(b), []string{key}, []string{key + "w"}, protocol.Valid)
		}
		form(t, m)
	}
	if size := m.GraphSize(); size > 60 {
		t.Errorf("graph grew to %d nodes despite pruning", size)
	}
	if m.Stats().PrunedNodes == 0 {
		t.Error("nothing was pruned")
	}
}

func TestStatsAccounting(t *testing.T) {
	m := NewManager(Options{})
	arrive(t, m, "ok", 0, []string{"a"}, []string{"b"}, protocol.Valid)
	arrive(t, m, "cyc", 0, []string{"b"}, []string{"a"}, protocol.AbortCycle)
	form(t, m)
	st := m.Stats()
	if st.Arrivals != 2 || st.Accepted != 1 || st.AbortCycle != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Formations != 1 || st.Committed != 1 {
		t.Errorf("formation stats = %+v", st)
	}
}

func TestDeterministicReplication(t *testing.T) {
	// Section 3.5 agreement: two managers fed the same consensus stream
	// must make identical decisions and emit identical block orders.
	type event struct {
		id     string
		snap   uint64
		reads  []string
		writes []string
	}
	mkStream := func() []event {
		var evs []event
		// A deliberately tangled deterministic stream.
		for i := 0; i < 400; i++ {
			k1 := fmt.Sprintf("k%d", (i*7)%13)
			k2 := fmt.Sprintf("k%d", (i*5)%13)
			k3 := fmt.Sprintf("k%d", (i*3)%13)
			evs = append(evs, event{
				id:     fmt.Sprintf("tx%d", i),
				reads:  []string{k1, k2},
				writes: []string{k3},
			})
		}
		return evs
	}
	run := func() []string {
		m := NewManager(Options{MaxSpan: 5, RelayBlocks: 3})
		var log []string
		height := uint64(0)
		for i, ev := range mkStream() {
			snap := height // always simulate against the latest formed block
			code, err := m.OnArrival(TxID(ev.id), snap, ev.reads, ev.writes)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("%s:%v", ev.id, code))
			if (i+1)%37 == 0 {
				ids, block := m.OnBlockFormation()
				if len(ids) > 0 {
					height = block
				}
				log = append(log, fmt.Sprintf("block%d:%v", block, ids))
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replicas diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRelayRebuildKeepsDetection(t *testing.T) {
	// With an aggressive relay period the filters are rebuilt constantly;
	// cycle detection must survive rebuilds.
	m := NewManager(Options{RelayBlocks: 1})
	arrive(t, m, "t1", 0, []string{"k1"}, []string{"k2"}, protocol.Valid)
	arrive(t, m, "t2", 0, nil, []string{"k1", "A"}, protocol.Valid)
	arrive(t, m, "t3", 0, []string{"k2"}, []string{"A", "t3only"}, protocol.Valid)
	form(t, m) // rebuild happens here
	arrive(t, m, "t4", 0, []string{"t3only"}, []string{"A"}, protocol.AbortCycle)
}

func TestReadOnlyAndWriteOnlyTransactions(t *testing.T) {
	m := NewManager(Options{})
	arrive(t, m, "blind", 0, nil, []string{"w"}, protocol.Valid)
	arrive(t, m, "reader", 0, []string{"r"}, nil, protocol.Valid)
	arrive(t, m, "noop", 0, nil, nil, protocol.Valid)
	order := form(t, m)
	if len(order) != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestManyBlindWritersAllCommit(t *testing.T) {
	// Pure c-ww load (the Create Account workload of Figure 15): everything
	// is serializable, nothing should abort.
	m := NewManager(Options{})
	for i := 0; i < 200; i++ {
		arrive(t, m, fmt.Sprintf("w%d", i), 0, nil, []string{"hotkey"}, protocol.Valid)
	}
	order := form(t, m)
	if len(order) != 200 {
		t.Errorf("committed %d of 200 blind writers", len(order))
	}
}

// TestArrivalStatsCountOnlyContractValidCalls pins the PR 4 fix: a call that
// violates the future-snapshot contract errors out before Algorithm 2 runs
// and must not count as an arrival — it previously inflated the MeanHops and
// abort-taxonomy denominators.
func TestArrivalStatsCountOnlyContractValidCalls(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.OnArrival("future", 5, []string{"a"}, nil); err == nil {
		t.Fatal("future snapshot accepted")
	}
	if got := m.Stats().Arrivals; got != 0 {
		t.Fatalf("contract-violating call counted: Arrivals = %d, want 0", got)
	}
	// An erroring call leaves nothing pending either.
	if got := m.PendingCount(); got != 0 {
		t.Fatalf("contract-violating call left %d pending", got)
	}
	arrive(t, m, "ok", 0, []string{"a"}, []string{"a"}, protocol.Valid)
	if got := m.Stats().Arrivals; got != 1 {
		t.Fatalf("Arrivals = %d, want 1", got)
	}
}

// TestPruneBoundsResidentKeys runs a churn stream — every block reads and
// writes a fresh generation of keys — through a default-configured Manager:
// after every formation the resident keys are exactly the generations the
// max-span horizon retains, while the distinct-key universe keeps growing.
func TestPruneBoundsResidentKeys(t *testing.T) {
	const blocks, perBlock, maxSpan = 60, 10, 10 // maxSpan: the default
	m := NewManager(Options{})
	height, n := uint64(0), 0
	for b := 1; b <= blocks; b++ {
		for i := 0; i < perBlock; i++ {
			r := fmt.Sprintf("g%d:r%d", b, i)
			w := fmt.Sprintf("g%d:w%d", b, i)
			arrive(t, m, fmt.Sprintf("t%d", n), height, []string{r}, []string{w}, protocol.Valid)
			n++
		}
		ids, block := m.OnBlockFormation()
		if len(ids) > 0 {
			height = block
		}
		want := 2 * perBlock * min(b, maxSpan)
		if got := m.ResidentKeys(); got != want {
			t.Fatalf("after block %d: %d resident keys, want %d (%d distinct keys seen)", b, got, want, 2*perBlock*b)
		}
	}
}

// TestWritePredReductionIsImplied checks addWritePreds' argument on the hot
// stream rather than trusting its comment: before every arrival, each live
// committed reader of a written key that committed before the key's last
// writer Cw — the readers the reduction no longer links — has Cw live too,
// and its filter adds no bit to Cw's. So the arrival's predecessor filters
// union to the same bits, and hasCycle answers the same, as linking every
// retained reader did.
func TestWritePredReductionIsImplied(t *testing.T) {
	h := newHotStream(t, 7)
	implied := 0
	check := func(writes []string) {
		for _, k := range writes {
			w, ok := h.m.keys[k]
			if !ok {
				continue
			}
			cwID, cwSeq, ok := w.CW.Last()
			if !ok {
				continue
			}
			cw, cwLive := h.m.g.lookup(cwID)
			for _, e := range w.CR {
				if !e.seq.Less(cwSeq) {
					break
				}
				r, live := h.m.g.lookup(e.id)
				if !live {
					continue
				}
				if !cwLive {
					t.Fatalf("reader %s of %s is live, its later writer %s is pruned", e.id, k, cwID)
				}
				union := cw.anti.Clone()
				union.Union(r.anti)
				if union.FillRatio() != cw.anti.FillRatio() {
					t.Fatalf("reader %s of %s has filter bits its later writer %s lacks", e.id, k, cwID)
				}
				implied++
			}
		}
	}
	for block := 0; block < 40; block++ {
		h.cut(h.arrive(t, 90, check))
	}
	if implied < 1000 {
		t.Fatalf("only %d implied reader edges checked; the stream no longer exercises the reduction", implied)
	}
}
