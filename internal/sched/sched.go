// Package sched implements the five ordering-phase concurrency control
// schemes the paper compares (Section 5.1):
//
//	fabric    — vanilla Fabric: FIFO ordering, validation-phase MVCC aborts
//	fabricpp  — Fabric++ [26]: simulation-phase cross-block abort plus
//	            in-block cycle elimination and reordering before formation
//	foccs     — Focc-s: Cahill et al.'s serializable OCC [10] adapted to the
//	            ordering phase (abort on concurrent ww or dangerous rw-rw)
//	foccl     — Focc-l: Ding et al.'s batch reordering [12] (sort-based
//	            greedy, reorder-only, nothing filtered on arrival)
//	sharp     — FabricSharp: the paper's fine-grained reordering
//	            (internal/core)
//
// All schedulers consume the same consensus-ordered transaction stream and
// are deterministic, so replicated orderers running the same scheduler build
// identical ledgers (Section 3.5's agreement property).
package sched

import (
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// System names the five comparable systems.
type System string

// The five systems of the evaluation.
const (
	SystemFabric   System = "fabric"
	SystemFabricPP System = "fabric++"
	SystemFoccS    System = "focc-s"
	SystemFoccL    System = "focc-l"
	SystemSharp    System = "fabric#"
)

// Systems lists all systems in the paper's presentation order.
func Systems() []System {
	return []System{SystemFabric, SystemFabricPP, SystemSharp, SystemFoccS, SystemFoccL}
}

// Dropped records a transaction discarded at block formation.
type Dropped struct {
	Tx   *protocol.Transaction
	Code protocol.ValidationCode
}

// FormationResult is the outcome of cutting one block.
type FormationResult struct {
	// Block is the sealed block number.
	Block uint64
	// Ordered are the transactions to include, in final order.
	Ordered []*protocol.Transaction
	// DroppedTxs were eliminated by the formation-time reordering
	// (Fabric++'s cycle elimination); they never reach the ledger.
	DroppedTxs []Dropped
}

// Scheduler is the pluggable ordering-phase concurrency control. Methods
// are invoked from a single goroutine, mirroring the serialized consensus
// output an orderer consumes.
type Scheduler interface {
	// System identifies the scheme.
	System() System
	// OnArrival processes one transaction in consensus order. It returns
	// protocol.Valid to admit the transaction to the pending set or an
	// early-abort code to drop it before ordering.
	OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error)
	// OnBlockFormation seals the pending set into the next block. With no
	// pending transactions it returns an empty result without consuming a
	// block number.
	OnBlockFormation() (FormationResult, error)
	// OnBlockCommitted feeds back the sealed block's verdicts, letting
	// schedulers that model committed state stay current: focc-l its
	// versions, sharp and focc-s the rescued tail the orderer deferred (a
	// tail-only block, whose formation ordered nothing, consumes its number
	// here). codes[i] corresponds to txs[i].
	OnBlockCommitted(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode)
	// NeedsMVCCValidation reports whether the validation phase must still
	// run the stale-read serializability check. Sharp and Focc-s guarantee
	// serializability before ordering, so their peers skip it (Figure 8,
	// "No Concurrency Validation").
	NeedsMVCCValidation() bool
	// PendingCount returns the size of the pending set.
	PendingCount() int
	// ResidentKeys returns the number of record keys with retained state:
	// for sharp and focc-s the keys with an index entry above the max-span
	// horizon or a pending access, for focc-l the keys with a committed
	// version, and 0 for fabric and fabric++, which keep no key state between
	// batches. The churn benchmark reports its maximum.
	ResidentKeys() int
	// Timing returns accumulated wall-clock costs of the scheduler itself.
	Timing() Timing
}

// Timing aggregates the scheduler's own processing cost — the quantities
// behind the reordering-latency discussion of Section 5.3. It is measured
// with metrics.Stopwatch, the package's only clock (the import test in
// internal/analysis keeps package time out); it never reaches sealed output.
type Timing struct {
	Arrivals    uint64
	ArrivalNS   int64
	Formations  uint64
	FormationNS int64
}

// MeanFormationMS returns the mean block-formation (reordering) latency in
// milliseconds.
func (t Timing) MeanFormationMS() float64 {
	if t.Formations == 0 {
		return 0
	}
	return float64(t.FormationNS) / float64(t.Formations) / 1e6
}

// MeanArrivalUS returns the mean per-arrival processing latency in
// microseconds.
func (t Timing) MeanArrivalUS() float64 {
	if t.Arrivals == 0 {
		return 0
	}
	return float64(t.ArrivalNS) / float64(t.Arrivals) / 1e3
}

// New constructs a scheduler for the given system with the given options.
func New(system System, opts Options) (Scheduler, error) {
	switch system {
	case SystemFabric:
		return NewFabric(), nil
	case SystemFabricPP:
		return NewFabricPP(), nil
	case SystemFoccS:
		return NewFoccS(opts), nil
	case SystemFoccL:
		return NewFoccL(), nil
	case SystemSharp:
		return NewSharp(opts), nil
	}
	return nil, errUnknownSystem(system)
}

type errUnknownSystem System

func (e errUnknownSystem) Error() string { return "sched: unknown system " + string(e) }

// Options carries cross-scheduler tunables.
type Options struct {
	// MaxSpan bounds transaction block spans (sharp, focc-s): snapshots more
	// than MaxSpan blocks old abort as stale, and the per-key index entries
	// behind that horizon are pruned with the keys they leave empty, which
	// bounds the schedulers' resident keys. Default 10.
	MaxSpan uint64
}

// forEachRescued calls fn with each Rescued transaction of a sealed block and
// the sequence its re-executed writes committed at (protocol.CommitPositions),
// in commit order. Blocks without one — every block of an uncontended run —
// cost a scan of the codes.
func forEachRescued(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode, fn func(*protocol.Transaction, seqno.Seq)) {
	var pos []uint32
	for i, code := range codes {
		if code != protocol.Rescued {
			continue
		}
		if pos == nil {
			pos = protocol.CommitPositions(codes)
		}
		fn(txs[i], seqno.Commit(block, pos[i]))
	}
}

// ReadsAcrossBlocks reports whether the simulation read versions from a
// block later than its snapshot — Fabric++'s early-abort criterion (a
// transaction that "reads across blocks", Section 2.1). Vanilla Fabric's
// simulation lock makes this impossible; Fabric++ detects it at the end of
// the (lock-free) simulation and aborts.
func ReadsAcrossBlocks(tx *protocol.Transaction) bool {
	for _, r := range tx.RWSet.Reads {
		if r.Version.Block > tx.SnapshotBlock {
			return true
		}
	}
	return false
}
