// Package validation implements the third phase of the EOV pipeline: each
// peer checks a delivered block's transactions against the endorsement
// policy and (for systems that need it) the MVCC serializability rule, then
// commits the valid writes to the state database.
//
// The MVCC rule is vanilla Fabric's: a transaction is valid iff every key it
// read still carries the version it observed — considering both committed
// state and the writes of earlier valid transactions in the same block. For
// FabricSharp and Focc-s the ordering phase already guarantees
// serializability, so peers skip the concurrency check entirely (Figure 8).
//
// ValidateAndCommit is the sequential reference implementation, a thin
// wrapper over ComputeVerdicts — the shared verdict function that the
// orderers' shadow validators (see ShadowState) run against a value-free
// version overlay at every cut. The internal/commit package builds the
// parallel production path on the same Overlay and ReadsFresh primitives,
// partitioning a block into key-disjoint conflict groups that validate
// concurrently, and asserts its codes byte-equal against the orderer's
// precomputed ones.
package validation

import (
	"fmt"

	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// Options configures block validation.
type Options struct {
	// MVCC enables the stale-read serializability check.
	MVCC bool
	// MSP and Policy, when both set, enable endorsement verification.
	MSP    *identity.Service
	Policy identity.Policy
	// Self, set only by the peer that owns it, is that peer's record of the
	// endorsements it signed; its own are then not verified a second time.
	// It cannot change a verdict (identity.SignedRing), so peers with one
	// and orderers without derive the same codes.
	Self *identity.SignedRing
}

// Overlay tracks the versions written by earlier valid transactions of the
// block being validated, shadowing committed state. Deleted keys are
// recorded as explicit tombstones so a read of a freshly deleted key
// observes "absent" rather than the committed version underneath. An Overlay
// is confined to one validation goroutine; it is not safe for concurrent
// use.
type Overlay struct {
	entries map[string]overlayEntry
}

type overlayEntry struct {
	version seqno.Seq
	deleted bool
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{entries: map[string]overlayEntry{}}
}

// Record shadows the keys of writes with version ver (tombstoning deletes).
func (o *Overlay) Record(ver seqno.Seq, writes []protocol.WriteItem) {
	for _, w := range writes {
		o.entries[w.Key] = overlayEntry{version: ver, deleted: w.Delete}
	}
}

// Version resolves key's current version: the overlay first, then the
// committed versions in base.
func (o *Overlay) Version(base VersionSource, key string) (seqno.Seq, bool) {
	if e, ok := o.entries[key]; ok {
		if e.deleted {
			return seqno.Seq{}, false
		}
		return e.version, true
	}
	return base.Version(key)
}

// ValidateAndCommit validates every transaction of blk in order and commits
// the valid ones' writes to db with versions (block, position). It returns
// the per-transaction validation codes, in block order. The verdicts come
// from ComputeVerdicts over the database's version view — the same function
// the orderers' shadow validators run, so the two paths cannot drift.
func ValidateAndCommit(db *statedb.DB, blk *ledger.Block, opts Options) ([]protocol.ValidationCode, error) {
	codes := ComputeVerdicts(DBVersions(db), blk.Header.Number, blk.Transactions, opts)
	var writes []statedb.BlockWrites
	for i, tx := range blk.Transactions {
		if codes[i] != protocol.Valid {
			continue
		}
		writes = append(writes, statedb.BlockWrites{Pos: uint32(i + 1), Writes: tx.RWSet.Writes})
	}
	if err := db.ApplyBlock(blk.Header.Number, writes); err != nil {
		return nil, fmt.Errorf("validation: commit block %d: %w", blk.Header.Number, err)
	}
	return codes, nil
}

// ReadsFresh reports whether every read version matches the current version
// of its key (zero version matching "absent").
func ReadsFresh(tx *protocol.Transaction, current func(string) (seqno.Seq, bool)) bool {
	for _, r := range tx.RWSet.Reads {
		ver, exists := current(r.Key)
		observedExisting := r.Version != seqno.Seq{}
		if exists != observedExisting {
			return false
		}
		if exists && ver != r.Version {
			return false
		}
	}
	return true
}

// Stale is a convenience wrapper reporting whether tx would fail the MVCC
// check against the database's latest state (no block overlay). The
// endorser-side early aborts of Fabric++ and the doomed-transaction
// detection of Focc-l use it.
func Stale(db *statedb.DB, tx *protocol.Transaction) bool {
	return !ReadsFresh(tx, func(key string) (seqno.Seq, bool) {
		vv, ok := db.Get(key)
		if !ok {
			return seqno.Seq{}, false
		}
		return vv.Version, true
	})
}
