package validation

import (
	"errors"
	"slices"
	"sort"
	"strings"

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
// The genesis sits under the entries as a statedb.Base (SeedBase): one
// immutable, pointer-free copy of it, read where a key has no entry. Only
// the keys blocks write take map entries, a deleted genesis key included
// (its tombstone hides the base). Once the entries have grown by
// statedb.Base.FoldStep since the last fold, ApplyRescued first folds every
// live one into a new base (statedb.Base.Merge) and keeps only the
// tombstones: the point depends on the stream alone, so every replica folds
// at the same block, and no read answer changes.
//
// A ShadowState is confined to its orderer goroutine; it is not safe for
// concurrent mutation (the read-only fan-out of a rescue run is fine — see
// Read).
type ShadowState struct {
	base    *statedb.Base
	entries map[string]shadowEntry
	height  uint64
	settled int // entries the last fold left
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
	if !ok {
		return s.base.Get(key)
	}
	if e.deleted {
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

// SeedBase installs a genesis base under an empty shadow: what Seed of each
// of its entries would install. A base is immutable, so the shadow shares
// it with whoever else holds it.
func (s *ShadowState) SeedBase(base *statedb.Base) error {
	if len(s.entries) > 0 || s.base != nil {
		return errors.New("validation: SeedBase on a seeded shadow")
	}
	s.base = base
	return nil
}

// Version implements VersionSource.
func (s *ShadowState) Version(key string) (seqno.Seq, bool) {
	_, ver, ok := s.Read(key)
	return ver, ok
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
	if s.FoldDue() {
		s.fold()
	}
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

// FoldDue reports whether the next ApplyRescued folds first: whether the
// entries have grown by the base's FoldStep since the last fold.
func (s *ShadowState) FoldDue() bool { return len(s.entries) >= s.settled+s.base.FoldStep() }

// fold merges every live entry into a new base and keeps the tombstones,
// which hide what the base holds of their keys and which Len counts.
func (s *ShadowState) fold() {
	ups := make([]statedb.Entry, 0, len(s.entries))
	for key, e := range s.entries {
		if !e.deleted {
			ups = append(ups, statedb.Entry{Key: key, Value: e.value, Version: e.version})
		}
	}
	slices.SortFunc(ups, func(a, b statedb.Entry) int { return strings.Compare(a.Key, b.Key) })
	dead := make([]string, 0, len(s.entries)-len(ups))
	for key, e := range s.entries {
		if e.deleted {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	s.settled = len(s.entries)
	base, err := s.base.Merge(ups)
	if err != nil {
		// A base past 4 GiB: the entries keep answering, and the next
		// fold waits for another FoldStep.
		return
	}
	kept := make(map[string]shadowEntry, len(dead))
	for _, key := range dead {
		kept[key] = s.entries[key]
	}
	s.base, s.entries, s.settled = base, kept, len(dead)
}

// Height returns the last applied block number.
func (s *ShadowState) Height() uint64 { return s.height }

// Len returns the number of tracked keys, tombstones included (tests,
// metrics).
func (s *ShadowState) Len() int {
	n := len(s.entries)
	s.base.EachKey(func(key []byte) {
		if _, ok := s.entries[string(key)]; !ok {
			n++
		}
	})
	return n
}

// ComputeVerdicts derives the validation codes for one block of ordered
// transactions against base — the shared, sequential verdict function of
// the whole repository. Every orderer computes it over its ShadowState in
// two halves: the endorsement half (PrecheckEndorsements) mostly while the
// batch fills, in orderer.Core.Precheck, and ComputeVerdictsPrechecked at the
// cut. Every peer computes it over its state database in the same two halves
// (commit.ValidateBlock). So the codes a block carries out of ordering equal
// the codes the peers compute during validation by construction, not by
// luck.
func ComputeVerdicts(base VersionSource, block uint64, txs []*protocol.Transaction, opts Options) []protocol.ValidationCode {
	return ComputeVerdictsPrechecked(base, block, txs, opts, PrecheckEndorsements(txs, opts, 1))
}

// PrecheckEndorsements runs opts' endorsement policy over every transaction
// on up to `workers` goroutines and returns the failure mask
// ComputeVerdictsPrechecked consumes, or nil when the options disable
// endorsement checking. Each verdict is an independent pure function of its
// transaction, so the mask is deterministic regardless of scheduling or of
// when it is computed — which is how the orderers keep the dominant CPU cost
// of shadow validation (ed25519 verification) off the cut: Core.Precheck
// runs it over a batch's members as they join, and the cut over only the
// members it had not reached.
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
	inBlock := newOverlay()
	current := func(key string) (seqno.Seq, bool) {
		return inBlock.Version(base, key)
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
		if !readsFresh(tx, current) {
			codes[i] = protocol.MVCCConflict
			continue
		}
		inBlock.Record(seqno.Commit(block, uint32(i+1)), tx.RWSet.Writes)
	}
	return codes
}
