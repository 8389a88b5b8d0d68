// Package validation implements the third phase of the EOV pipeline: the
// verdict a block's transactions get from the endorsement policy and (for
// systems that need it) the MVCC serializability rule.
//
// The MVCC rule is vanilla Fabric's: a transaction is valid iff every key it
// read still carries the version it observed — considering both committed
// state and the writes of earlier valid transactions in the same block. For
// FabricSharp and Focc-s the ordering phase already guarantees
// serializability, so peers skip the concurrency check entirely (Figure 8).
//
// ComputeVerdicts is the one verdict function of the pipeline, over any
// VersionSource: every orderer runs it over its ShadowState at each cut,
// and every peer (commit.ValidateBlock) over its state database's versions
// through DBVersions. Both split it the same way, PrecheckEndorsements on a
// worker pool and then the sequential MVCC fold of
// ComputeVerdictsPrechecked, so the codes a block is sealed with and the
// codes a peer derives differ only if the orderer's shadow and the peer's
// state do — which the peer asserts against.
package validation

import (
	"fabricsharp/internal/identity"
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

// overlay tracks the versions written by earlier valid transactions of the
// block being validated, shadowing committed state. Deleted keys are
// recorded as explicit tombstones so a read of a freshly deleted key
// observes "absent" rather than the committed version underneath. An overlay
// is confined to one validation goroutine; it is not safe for concurrent
// use.
type overlay struct {
	entries map[string]overlayEntry
}

type overlayEntry struct {
	version seqno.Seq
	deleted bool
}

// newOverlay returns an empty overlay.
func newOverlay() *overlay {
	return &overlay{entries: map[string]overlayEntry{}}
}

// Record shadows the keys of writes with version ver (tombstoning deletes).
func (o *overlay) Record(ver seqno.Seq, writes []protocol.WriteItem) {
	for _, w := range writes {
		o.entries[w.Key] = overlayEntry{version: ver, deleted: w.Delete}
	}
}

// Version resolves key's current version: the overlay first, then the
// committed versions in base.
func (o *overlay) Version(base VersionSource, key string) (seqno.Seq, bool) {
	if e, ok := o.entries[key]; ok {
		if e.deleted {
			return seqno.Seq{}, false
		}
		return e.version, true
	}
	return base.Version(key)
}

// readsFresh reports whether every read version matches the current version
// of its key (zero version matching "absent").
func readsFresh(tx *protocol.Transaction, current func(string) (seqno.Seq, bool)) bool {
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
	return !readsFresh(tx, func(key string) (seqno.Seq, bool) {
		vv, ok := db.Get(key)
		if !ok {
			return seqno.Seq{}, false
		}
		return vv.Version, true
	})
}
