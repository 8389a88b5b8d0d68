package sched

import (
	"sort"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// FoccL adapts Ding et al.'s batch reordering [12]: nothing is filtered on
// arrival, and at block formation a sort-based greedy pass permutes the
// batch to minimize validation-phase aborts. The greedy works in rounds: it
// repeatedly emits transactions whose intra-batch read-before-write
// constraints are satisfied, pruning the most conflicted transaction to the
// back whenever the remaining graph is cyclic ("keeps pruning transactions
// until there are only transactions without dependencies", Section 5.3).
// Unsalvageable transactions stay in the block and fail MVCC validation —
// the ledger still carries unserializable transactions, exactly like
// Fabric. Focc-l keeps the latest committed version of every key it has
// seen written: a read stale against any of them is doomed.
type FoccL struct {
	pending   []*protocol.Transaction
	committed map[string]seqno.Seq // latest valid version per key, from feedback
	nextBlock uint64
	timing    Timing
}

// NewFoccL returns the Focc-l scheduler.
func NewFoccL() *FoccL {
	return &FoccL{committed: map[string]seqno.Seq{}, nextBlock: 1}
}

// System implements Scheduler.
func (f *FoccL) System() System { return SystemFoccL }

// OnArrival implements Scheduler: everything is admitted
// ("Focc-l does not filter any transactions in Algorithm 2").
func (f *FoccL) OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error) {
	w := startWatch()
	f.pending = append(f.pending, tx)
	f.timing.Arrivals++
	f.timing.ArrivalNS += w.elapsedNS()
	return protocol.Valid, nil
}

// OnBlockFormation implements Scheduler: the sort-based greedy reordering.
func (f *FoccL) OnBlockFormation() (FormationResult, error) {
	if len(f.pending) == 0 {
		return FormationResult{Block: f.nextBlock}, nil
	}
	w := startWatch()
	ordered := f.greedyOrder(f.pending)
	res := FormationResult{Block: f.nextBlock, Ordered: ordered}
	f.pending = nil
	f.nextBlock++
	f.timing.Formations++
	f.timing.FormationNS += w.elapsedNS()
	return res, nil
}

// greedyOrder permutes the batch. Doomed transactions — whose reads are
// already stale against committed state, so no permutation can save them —
// are moved to the back first (they will fail validation and their writes
// will not apply). The rest are ordered readers-before-writers; cycles are
// broken by deferring the highest-degree transaction to the doomed tail.
func (f *FoccL) greedyOrder(batch []*protocol.Transaction) []*protocol.Transaction {
	var viable []*protocol.Transaction
	var tail []*protocol.Transaction
	for _, tx := range batch {
		if f.staleAgainstCommitted(tx) {
			tail = append(tail, tx)
		} else {
			viable = append(viable, tx)
		}
	}
	ordered, dropped := reorderBatch(viable) // same graph machinery as Fabric++
	// Deferred (cycle-breaking) transactions go to the back: some may still
	// pass validation if the writes that would doom them belong to
	// transactions that themselves abort.
	ordered = append(ordered, dropped...)
	ordered = append(ordered, tail...)
	return ordered
}

// staleAgainstCommitted reports whether some read version already lags the
// latest committed (valid) version — beyond intra-batch repair.
func (f *FoccL) staleAgainstCommitted(tx *protocol.Transaction) bool {
	for _, r := range tx.RWSet.Reads {
		if latest, ok := f.committed[r.Key]; ok && r.Version.Less(latest) {
			return true
		}
	}
	return false
}

// OnBlockCommitted implements Scheduler: track latest committed versions so
// the next formation knows which pending transactions are already doomed.
// Rescued transactions committed too — their re-executed writes land on the
// declared write keys (key sets are argument-determined for every shipped
// contract, and the rescue phase's containment rule deterministically drops
// any execution that escapes them), so the declared keys are the right
// version bump; the version itself comes from protocol.CommitPositions
// (rescued writes serialize after the whole block).
func (f *FoccL) OnBlockCommitted(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode) {
	pos := protocol.CommitPositions(codes)
	for i, tx := range txs {
		if !codes[i].Committed() {
			continue
		}
		seq := seqno.Commit(block, pos[i])
		for _, k := range tx.RWSet.WriteKeys() {
			f.committed[k] = seq
		}
	}
}

// NeedsMVCCValidation implements Scheduler: reordering is best-effort; the
// validator still enforces serializability.
func (f *FoccL) NeedsMVCCValidation() bool { return true }

// PendingCount implements Scheduler.
func (f *FoccL) PendingCount() int { return len(f.pending) }

// ResidentKeys implements Scheduler: the keys with a committed version.
func (f *FoccL) ResidentKeys() int { return len(f.committed) }

// Timing implements Scheduler.
func (f *FoccL) Timing() Timing { return f.timing }

// sortTxIDs is a deterministic helper used in tests.
func sortTxIDs(txs []*protocol.Transaction) []string {
	out := make([]string, len(txs))
	for i, tx := range txs {
		out[i] = string(tx.ID)
	}
	sort.Strings(out)
	return out
}
