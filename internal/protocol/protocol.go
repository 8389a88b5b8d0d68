// Package protocol defines the transaction types flowing through the
// execute-order-validate pipeline: proposals, read/write sets, endorsements,
// envelopes, and the validation/abort taxonomy the evaluation reports on.
package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"fabricsharp/internal/seqno"
)

// TxID uniquely identifies a transaction.
type TxID string

// Version identifies the (block, position) that last wrote a state entry.
type Version = seqno.Seq

// ReadItem records one key read during simulation together with the version
// observed — the version dependency the validator (or the Sharp orderer)
// checks.
type ReadItem struct {
	Key     string
	Version Version
}

// WriteItem records one state update produced by simulation.
type WriteItem struct {
	Key    string
	Value  []byte
	Delete bool
}

// RWSet is the complete simulation effect of a transaction.
type RWSet struct {
	Reads  []ReadItem
	Writes []WriteItem

	// readKeys/writeKeys cache the deduplicated key sets. Every scheduler
	// needs them at least twice (arrival and formation), and rebuilding the
	// dedup map each call was a measurable share of the ordering hot path.
	// They are filled only by Precompute — the accessors never write, so a
	// transaction precomputed before fan-out is safe to share across
	// validator goroutines.
	readKeys  []string
	writeKeys []string
}

// ReadKeys returns the distinct read keys in deterministic order. The cache
// fills via Precompute; without it each call recomputes (correct, slower).
// Callers must not mutate the returned slice.
func (rw *RWSet) ReadKeys() []string {
	if rw.readKeys != nil {
		return rw.readKeys
	}
	return dedupKeys(rw.Reads, func(r ReadItem) string { return r.Key })
}

// WriteKeys returns the distinct written keys in deterministic order.
// Callers must not mutate the returned slice.
func (rw *RWSet) WriteKeys() []string {
	if rw.writeKeys != nil {
		return rw.writeKeys
	}
	return dedupKeys(rw.Writes, func(w WriteItem) string { return w.Key })
}

// Precompute fills the distinct-key caches consumed by ReadKeys/WriteKeys.
// Call it once where the transaction is built (or any other point with
// exclusive access); concurrent readers after publication then share the
// cached slices. Precompute is intentionally not called lazily from the
// accessors — a lazy fill from two goroutines would race.
func (rw *RWSet) Precompute() {
	rw.readKeys = dedupKeys(rw.Reads, func(r ReadItem) string { return r.Key })
	rw.writeKeys = dedupKeys(rw.Writes, func(w WriteItem) string { return w.Key })
}

func dedupKeys[T any](items []T, key func(T) string) []string {
	seen := make(map[string]bool, len(items))
	out := make([]string, 0, len(items))
	for _, it := range items {
		k := key(it)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Endorsement is one peer's signature over a proposal response.
type Endorsement struct {
	EndorserID string
	Signature  []byte
}

// Transaction is an endorsed transaction submitted to the ordering service.
type Transaction struct {
	ID       TxID
	ClientID string
	Contract string
	Function string
	Args     []string
	// SnapshotBlock is the block whose post-commit state the simulation read
	// (Algorithm 1). StartTs = (SnapshotBlock+1, 0) per Definition 3.
	SnapshotBlock uint64
	RWSet         RWSet
	Endorsements  []Endorsement
}

// StartTS returns the transaction's start timestamp (Definition 3).
func (t *Transaction) StartTS() seqno.Seq { return seqno.Snapshot(t.SnapshotBlock) }

// Digest computes a deterministic hash over the transaction's identity and
// simulation effects. It is what endorsers sign and what the hash-commitment
// scheme of Section 3.5 publishes before disclosure.
func (t *Transaction) Digest() []byte {
	h := sha256.New()
	writeLenPrefixed := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeLenPrefixed(string(t.ID))
	writeLenPrefixed(t.ClientID)
	writeLenPrefixed(t.Contract)
	writeLenPrefixed(t.Function)
	for _, a := range t.Args {
		writeLenPrefixed(a)
	}
	var blk [8]byte
	binary.BigEndian.PutUint64(blk[:], t.SnapshotBlock)
	h.Write(blk[:])
	for _, r := range t.RWSet.Reads {
		writeLenPrefixed(r.Key)
		h.Write(r.Version.Bytes())
	}
	for _, w := range t.RWSet.Writes {
		writeLenPrefixed(w.Key)
		writeLenPrefixed(string(w.Value))
		if w.Delete {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum(nil)
}

// DigestHex is Digest rendered as a hex string, used as the pre-disclosure
// commitment identifier.
func (t *Transaction) DigestHex() string { return hex.EncodeToString(t.Digest()) }

// ValidationCode classifies a transaction's final fate. The codes double as
// the abort taxonomy of Figure 14.
type ValidationCode uint8

const (
	// Valid marks a committed transaction.
	Valid ValidationCode = iota
	// MVCCConflict marks a transaction aborted by the validation-phase
	// serializability (stale read) check.
	MVCCConflict
	// EndorsementFailure marks a transaction whose endorsements do not
	// satisfy the chaincode's policy.
	EndorsementFailure
	// AbortCycle marks a transaction dropped before ordering because it
	// would close a dependency cycle that no reordering can fix
	// (Theorem 2) — including bloom-filter false positives, which abort
	// preventively.
	AbortCycle
	// AbortStaleSnapshot marks a transaction dropped because its snapshot
	// fell behind the max_span pruning horizon (Section 4.6).
	AbortStaleSnapshot
	// AbortConcurrentWW marks a transaction dropped by Focc-s's
	// first-committer-wins rule on concurrent write-write conflicts.
	AbortConcurrentWW
	// AbortDangerousStructure marks a transaction dropped by Focc-s's
	// two-consecutive-rw (Cahill et al.) rule.
	AbortDangerousStructure
	// AbortSimulation marks a transaction aborted during execution because
	// it read across blocks (Fabric++'s early abort).
	AbortSimulation
	// AbortReorderCycle marks a transaction dropped at block formation by a
	// batch reordering scheme (Fabric++ in-block cycle elimination).
	AbortReorderCycle
	// AbortDuplicate marks a replayed transaction identifier.
	AbortDuplicate
	// Rescued marks a transaction that failed the MVCC check but was
	// deterministically re-executed by the post-order rescue phase
	// (internal/reexec) against the block's committed prefix and committed
	// with its re-executed write set. New codes must be appended here: the
	// numeric values are sealed into blocks and asserted byte-equal across
	// replicas.
	Rescued
)

// String renders the code using the evaluation's vocabulary.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "valid"
	case MVCCConflict:
		return "mvcc-conflict"
	case EndorsementFailure:
		return "endorsement-failure"
	case AbortCycle:
		return "cycle"
	case AbortStaleSnapshot:
		return "stale-snapshot"
	case AbortConcurrentWW:
		return "concurrent-ww"
	case AbortDangerousStructure:
		return "2-consecutive-rw"
	case AbortSimulation:
		return "simulation-abort"
	case AbortReorderCycle:
		return "reorder-cycle"
	case AbortDuplicate:
		return "duplicate"
	case Rescued:
		return "rescued"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Committed reports whether the transaction's effects reach the state
// database: either it validated cleanly (Valid, declared write set applied)
// or the post-order rescue phase re-executed it (Rescued, re-executed write
// set applied).
func (c ValidationCode) Committed() bool { return c == Valid || c == Rescued }

// CommitPositions maps one block's verdicts to the 1-based positions its
// committed write sets apply at — the block's serial order. Valid
// transactions commit at their in-block position i+1; Rescued ones serialize
// after the whole block (post-order re-execution), at N+1..N+R in block
// order for a block of N transactions; every other code yields 0 (nothing
// applied). Every layer that assigns versions to a sealed block's writes
// (state database application, shadow state, scheduler feedback) derives
// them from this one function, so the version a key carries is
// replica-independent by construction.
func CommitPositions(codes []ValidationCode) []uint32 {
	out := make([]uint32, len(codes))
	rank := uint32(len(codes))
	for i, c := range codes {
		switch c {
		case Valid:
			out[i] = uint32(i + 1)
		case Rescued:
			rank++
			out[i] = rank
		}
	}
	return out
}

// Deferrable reports whether the code is a scheduler's dependency verdict —
// the arrival conflicts with what is pending or committed, not with the
// contract, the policy or the max-span horizon. With rescue on, an orderer
// whose scheduler skips MVCC defers such an arrival to the block's tail for
// post-order re-execution instead of aborting it; inside a sealed block the
// code therefore marks a tail member whose re-execution failed.
func (c ValidationCode) Deferrable() bool {
	return c == AbortCycle || c == AbortConcurrentWW || c == AbortDangerousStructure
}

// IsEarlyAbort reports whether the code is decided before the transaction
// reaches the ledger (so the transaction consumes no block space and no
// validation work) — unless it is Deferrable and rides a block's tail.
func (c ValidationCode) IsEarlyAbort() bool {
	switch c {
	case AbortCycle, AbortStaleSnapshot, AbortConcurrentWW,
		AbortDangerousStructure, AbortSimulation, AbortReorderCycle, AbortDuplicate:
		return true
	}
	return false
}
