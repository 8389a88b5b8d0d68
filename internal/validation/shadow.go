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

// ShadowState is a value-free replica of the committed version state: for
// every live key, the (block, position) version of its last valid write;
// deletes are tombstoned exactly like the state database reports them
// (absent). Orderers maintain one per replica and advance it with the
// verdicts ComputeVerdicts derives at each cut, so commit feedback becomes a
// pure function of the consensus stream — no peer, no timing, no values.
//
// A ShadowState is confined to its orderer goroutine; it is not safe for
// concurrent mutation (the read-only fan-out of a rescue run is fine — see
// Read).
type ShadowState struct {
	entries map[string]shadowEntry
	height  uint64
	// values enables value tracking (NewValueShadowState): the post-order
	// rescue phase re-executes chaincode at the orderer, which needs the
	// committed values, not just their versions. Values still come purely
	// from the consensus stream (declared write sets of valid transactions
	// plus re-executed write sets of rescued ones), so the shadow remains a
	// deterministic function of the stream.
	values bool
}

type shadowEntry struct {
	version seqno.Seq
	value   []byte
	deleted bool
}

// NewShadowState returns an empty value-free shadow (the genesis version
// state).
func NewShadowState() *ShadowState {
	return &ShadowState{entries: map[string]shadowEntry{}}
}

// NewValueShadowState returns an empty shadow that also tracks committed
// values, as required to re-execute chaincode at the orderer (reexec's
// StateSource).
func NewValueShadowState() *ShadowState {
	return &ShadowState{entries: map[string]shadowEntry{}, values: true}
}

// TracksValues reports whether the shadow stores committed values.
func (s *ShadowState) TracksValues() bool { return s.values }

// Read resolves key to its committed value and version (reexec.StateSource).
// Only value-tracking shadows (NewValueShadowState) support it. Read never
// mutates the shadow, so the concurrent readers of a rescue run are safe as
// long as nothing applies a block mid-run (the orderer's cut path is
// serial). Callers must not mutate the returned value.
func (s *ShadowState) Read(key string) ([]byte, seqno.Seq, bool) {
	if !s.values {
		panic("validation: Read on a value-free ShadowState (use NewValueShadowState)")
	}
	e, ok := s.entries[key]
	if !ok || e.deleted {
		return nil, seqno.Seq{}, false
	}
	return e.value, e.version, true
}

// Seed installs a committed key directly, bypassing block application —
// benchmark and test initialization for value shadows. ver must be from a
// block at or below the shadow's height.
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

// Apply folds one sealed block's verdicts into the shadow: the writes of
// every valid transaction land at version (block, position), deletes as
// tombstones — mirroring what statedb.ApplyBlock will do on the peers with
// the same codes. codes[i] corresponds to txs[i]. Blocks carrying Rescued
// verdicts must go through ApplyRescued instead (the rescued write sets are
// not derivable from the transactions alone).
func (s *ShadowState) Apply(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode) {
	s.ApplyRescued(block, txs, codes, nil)
}

// ApplyRescued is Apply plus the post-order rescue outcome: rescued[i], when
// the slice is non-nil, holds the re-executed write set of each Rescued
// transaction. Valid transactions commit their declared writes at their
// in-block position; Rescued ones commit their re-executed writes after the
// whole block (protocol.CommitPositions) — the valid pass runs first so a
// rescued write of the same key lands last, exactly like the state
// database's version-ordered history.
func (s *ShadowState) ApplyRescued(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode, rescued [][]protocol.WriteItem) {
	pos := protocol.CommitPositions(codes)
	apply := func(i int, writes []protocol.WriteItem) {
		ver := seqno.Commit(block, pos[i])
		for _, w := range writes {
			e := shadowEntry{version: ver, deleted: w.Delete}
			if s.values {
				e.value = w.Value
			}
			s.entries[w.Key] = e
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
		if opts.MVCC && !ReadsFresh(tx, current) {
			codes[i] = protocol.MVCCConflict
			continue
		}
		codes[i] = protocol.Valid
		overlay.Record(seqno.Commit(block, uint32(i+1)), tx.RWSet.Writes)
	}
	return codes
}
