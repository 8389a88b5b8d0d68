package validation

import (
	"fabricsharp/internal/conflict"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// VersionSource resolves a key's latest committed version. It is the
// value-free slice of the state database that the verdict logic actually
// consumes: endorsement and MVCC checks never read values, only versions.
// Both the peers' full state (via DBVersions) and the orderers' ShadowState
// implement it, so one verdict function serves both sides of the pipeline.
type VersionSource interface {
	// Version returns the latest version of key, and false when the key is
	// absent (never written, or deleted).
	Version(key string) (seqno.Seq, bool)
}

// dbVersions adapts a statedb.DB's latest-version view to VersionSource.
type dbVersions struct{ db *statedb.DB }

// DBVersions exposes db's latest committed versions as a VersionSource.
func DBVersions(db *statedb.DB) VersionSource { return dbVersions{db: db} }

func (s dbVersions) Version(key string) (seqno.Seq, bool) {
	vv, ok := s.db.Get(key)
	if !ok {
		return seqno.Seq{}, false
	}
	return vv.Version, true
}

// ShadowState is the orderer's replica of the committed state: for every
// live key, the (block, position) version of its last committed write and
// the value written; deletes are tombstoned exactly like the state database
// reports them (absent). Orderers maintain one per replica and advance it
// with the verdicts ComputeVerdicts derives at each cut, so commit feedback
// becomes a pure function of the consensus stream — no peer, no timing. The
// verdict logic reads only versions; the values are there for the post-order
// rescue phase, which re-executes chaincode at the orderer. They come purely
// from the stream too (declared write sets of valid transactions plus
// re-executed write sets of rescued ones) and alias the write sets the chain
// retains anyway, so tracking them costs a slice header per key.
//
// A ShadowState is confined to its orderer goroutine; it is not safe for
// concurrent mutation (the read-only fan-out of a rescue run is fine — see
// Read).
type ShadowState struct {
	entries map[string]shadowEntry
	height  uint64
}

type shadowEntry struct {
	version seqno.Seq
	value   []byte
	deleted bool
}

// NewValueShadowState returns an empty shadow (the genesis state). The name
// dates from when a value-free variant existed beside it.
func NewValueShadowState() *ShadowState {
	return &ShadowState{entries: map[string]shadowEntry{}}
}

// Read resolves key to its committed value and version (reexec.StateSource).
// Read never mutates the shadow, so the concurrent readers of a rescue run
// are safe as long as nothing applies a block mid-run (the orderer's cut
// path is serial). Callers must not mutate the returned value.
func (s *ShadowState) Read(key string) ([]byte, seqno.Seq, bool) {
	e, ok := s.entries[key]
	if !ok || e.deleted {
		return nil, seqno.Seq{}, false
	}
	return e.value, e.version, true
}

// Seed installs a committed key directly, bypassing block application —
// genesis, benchmark and test initialization. ver must be from a block at or
// below the shadow's height.
func (s *ShadowState) Seed(key string, value []byte, ver seqno.Seq) {
	s.entries[key] = shadowEntry{version: ver, value: value}
}

// Version implements VersionSource.
func (s *ShadowState) Version(key string) (seqno.Seq, bool) {
	e, ok := s.entries[key]
	if !ok || e.deleted {
		return seqno.Seq{}, false
	}
	return e.version, true
}

// ApplyRescued folds one sealed block's verdicts into the shadow, mirroring
// what statedb.ApplyBlock will do on the peers with the same codes (codes[i]
// corresponds to txs[i]); rescued[i] holds the re-executed write set of each
// Rescued transaction (nil when the block has none). Valid transactions
// commit their declared writes at their in-block position, deletes as
// tombstones; Rescued ones commit their re-executed writes after the whole
// block (protocol.CommitPositions) — the valid pass runs first so a rescued
// write of the same key lands last, exactly like the state database's
// version-ordered history.
func (s *ShadowState) ApplyRescued(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode, rescued [][]protocol.WriteItem) {
	pos := protocol.CommitPositions(codes)
	apply := func(i int, writes []protocol.WriteItem) {
		ver := seqno.Commit(block, pos[i])
		for _, w := range writes {
			s.entries[w.Key] = shadowEntry{version: ver, value: w.Value, deleted: w.Delete}
		}
	}
	for i, tx := range txs {
		if codes[i] == protocol.Valid {
			apply(i, tx.RWSet.Writes)
		}
	}
	for i := range txs {
		if codes[i] != protocol.Rescued {
			continue
		}
		if rescued == nil {
			// Applying a rescued block without its write sets would
			// silently desynchronize the shadow from the peers.
			panic("validation: Apply on a block with Rescued verdicts (use ApplyRescued)")
		}
		apply(i, rescued[i])
	}
	s.height = block
}

// Height returns the last applied block number.
func (s *ShadowState) Height() uint64 { return s.height }

// Len returns the number of tracked keys, tombstones included (tests,
// metrics).
func (s *ShadowState) Len() int { return len(s.entries) }

// ComputeVerdicts derives the validation codes for one block of ordered
// transactions against base — the shared, sequential verdict function of
// the whole repository. ValidateAndCommit wraps it for the peer reference
// path, commit.ValidateBlock is asserted byte-identical to it, and every
// orderer runs it over its ShadowState right after a cut, so the codes a
// block carries out of ordering equal the codes the peers compute during
// validation by construction, not by luck.
func ComputeVerdicts(base VersionSource, block uint64, txs []*protocol.Transaction, opts Options) []protocol.ValidationCode {
	return ComputeVerdictsPrechecked(base, block, txs, opts, PrecheckEndorsements(txs, opts, 1))
}

// PrecheckEndorsements runs opts' endorsement policy over every transaction
// on up to `workers` goroutines and returns the failure mask
// ComputeVerdictsPrechecked consumes, or nil when the options disable
// endorsement checking. Each verdict is an independent pure function of its
// transaction, so the mask is deterministic regardless of scheduling — this
// is how the orderers keep the dominant CPU cost of shadow validation
// (ed25519 verification) off the serial part of the cut path.
func PrecheckEndorsements(txs []*protocol.Transaction, opts Options, workers int) []bool {
	if opts.MSP == nil || opts.Policy == nil {
		return nil
	}
	failed := make([]bool, len(txs))
	conflict.ParallelFor(len(txs), workers, func(i int) {
		failed[i] = opts.MSP.CheckEndorsements(txs[i], opts.Policy, opts.Self) != nil
	})
	return failed
}

// ComputeVerdictsPrechecked is ComputeVerdicts with the endorsement phase
// already done: endorseFailed[i], when the slice is non-nil, is the
// (order-independent) endorsement verdict for txs[i]. The sequential pass
// here is only the overlay-coupled MVCC rule.
func ComputeVerdictsPrechecked(base VersionSource, block uint64, txs []*protocol.Transaction, opts Options, endorseFailed []bool) []protocol.ValidationCode {
	codes := make([]protocol.ValidationCode, len(txs))
	overlay := NewOverlay()
	current := func(key string) (seqno.Seq, bool) {
		return overlay.Version(base, key)
	}
	for i, tx := range txs {
		if endorseFailed != nil && endorseFailed[i] {
			codes[i] = protocol.EndorsementFailure
			continue
		}
		codes[i] = protocol.Valid
		if !opts.MVCC {
			continue // nothing reads the overlay
		}
		if !ReadsFresh(tx, current) {
			codes[i] = protocol.MVCCConflict
			continue
		}
		overlay.Record(seqno.Commit(block, uint32(i+1)), tx.RWSet.Writes)
	}
	return codes
}
