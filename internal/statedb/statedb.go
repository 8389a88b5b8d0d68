// Package statedb implements the versioned key-value state of an
// execute-order-validate blockchain (paper Section 2.1) extended with the
// multi-version history and block-snapshot reads that FabricSharp's
// Algorithm 1 requires (Section 4.2).
//
// Every entry is a (key, version, value) tuple whose version is the
// (block, position) sequence number of the transaction that last wrote it.
// Unlike vanilla Fabric — which keeps only the latest version and therefore
// needs a read-write lock between simulation and commit — this store retains
// a bounded history per key, so contract simulations read a consistent
// snapshot "as of block M" while later blocks commit concurrently. Stale
// snapshots beyond the max_span horizon are pruned.
//
// # Concurrency
//
// The history is striped across fnv-hashed shards, each with its own
// read-write lock, so concurrent snapshot reads (simulations) and committer
// writes contend only when they touch the same stripe. Three lock classes
// compose the protocol:
//
//   - per-key readers (Get, GetAt, VersionCount, KeysInRange) take one
//     shard's read lock;
//   - mutators (ApplyBlock, PruneSnapshots) take applyMu plus each touched
//     shard's write lock;
//   - whole-database views (Clone, ForEachLatest, Keys) take applyMu
//     alone — it excludes every mutator, and concurrent shard readers are
//     harmless; StateFingerprint takes it too, to read the running digest
//     the mutators maintain.
//
// Snapshot isolation does not depend on the locks: ApplyBlock publishes the
// new height only after every shard write of the block has landed, and
// snapshot reads filter versions by block, so a reader at any snapshot
// <= Height() can never observe a torn block (asserted by the -race stress
// test).
package statedb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// VersionedValue is one version of a key's value.
type VersionedValue struct {
	Value   []byte
	Version seqno.Seq
	Deleted bool
}

// BlockWrites carries one transaction's writes into ApplyBlock, tagged with
// the transaction's position (1-based) inside the block.
type BlockWrites struct {
	Pos    uint32
	Writes []protocol.WriteItem
}

// Options configures a state database.
type Options struct {
	// Backing, when non-nil, persists the latest version of every key (plus
	// the chain height) per block in one atomic write batch, and is loaded
	// on construction. The database uses the keys under "s/" and
	// "meta/height" only, so the store may hold other records.
	Backing *kvstore.DB
}

// numShards stripes the version history; a power of two so the shard pick is
// a mask. 32 stripes keep committer/simulator contention negligible at
// GOMAXPROCS values this repository targets.
const numShards = 32

// shard is one stripe of the version history.
type shard struct {
	mu   sync.RWMutex
	hist map[string][]VersionedValue // ascending by version
}

// shardFor hashes key onto a stripe (FNV-1a).
func shardFor(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & (numShards - 1)
}

// DB is a multi-versioned state database. It is safe for concurrent use.
type DB struct {
	// applyMu serializes mutators against each other and against
	// whole-database views; see the package comment for the lock protocol.
	applyMu sync.Mutex
	shards  [numShards]shard
	height  atomic.Uint64 // last committed block number, published post-write
	hasAny  atomic.Bool   // whether any block has been applied
	backing *kvstore.DB
	batch   []kvstore.BatchOp // per-block persist batch, reused
	live    liveSum           // fingerprint of the live contents, guarded by applyMu
}

const (
	backingStatePrefix = "s/"
	backingHeightKey   = "meta/height"
)

// New creates a state database, loading the latest state from
// opts.Backing when present.
func New(opts Options) (*DB, error) {
	db := &DB{backing: opts.Backing}
	for i := range db.shards {
		db.shards[i].hist = make(map[string][]VersionedValue)
	}
	if opts.Backing == nil {
		return db, nil
	}
	err := opts.Backing.Scan([]byte(backingHeightKey), func(_, raw []byte) error {
		seq, err := seqno.FromBytes(raw)
		if err != nil {
			return fmt.Errorf("statedb: corrupt height: %w", err)
		}
		db.height.Store(seq.Block)
		db.hasAny.Store(true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = opts.Backing.Scan([]byte(backingStatePrefix), func(k, raw []byte) error {
		key := string(k[len(backingStatePrefix):])
		if len(raw) < seqno.EncodedLen() {
			return fmt.Errorf("statedb: corrupt record for %q", key)
		}
		ver, err := seqno.FromBytes(raw)
		if err != nil {
			return err
		}
		val := raw[seqno.EncodedLen():]
		sh := &db.shards[shardFor(key)]
		sh.hist[key] = []VersionedValue{{Value: val, Version: ver}}
		db.live.add(pairDigest(key, val))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Height returns the number of the last committed block.
func (db *DB) Height() uint64 { return db.height.Load() }

// Seeded reports whether any block — the genesis, block 0, included — has
// been applied; on a backed database, whether the store held a height
// record. Height alone cannot tell a fresh database from a seeded one.
func (db *DB) Seeded() bool { return db.hasAny.Load() }

// Durable reports whether a backing store persists each applied block.
func (db *DB) Durable() bool { return db.backing != nil }

// Get returns the latest version of key — a per-key point read. Cross-key
// consistency under concurrent commits needs GetAt/SnapshotAt.
func (db *DB) Get(key string) (VersionedValue, bool) {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	versions := sh.hist[key]
	if len(versions) == 0 {
		return VersionedValue{}, false
	}
	last := versions[len(versions)-1]
	if last.Deleted {
		return VersionedValue{}, false
	}
	return last, true
}

// GetAt returns the value of key as observed by the blockchain snapshot
// taken after block asOfBlock (Definition 1): the latest version whose
// block number is <= asOfBlock. Reads at snapshots at or below Height() are
// torn-free with respect to concurrently applying blocks.
func (db *DB) GetAt(key string, asOfBlock uint64) (VersionedValue, bool, error) {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	versions := sh.hist[key]
	// Binary search for the last version with Version.Block <= asOfBlock.
	lo, hi := 0, len(versions)
	for lo < hi {
		mid := (lo + hi) / 2
		if versions[mid].Version.Block <= asOfBlock {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// The key did not exist at that snapshot (or its history was pruned
		// past it, which the caller bounds by max_span).
		return VersionedValue{}, false, nil
	}
	vv := versions[lo-1]
	if vv.Deleted {
		return VersionedValue{}, false, nil
	}
	return vv, true, nil
}

// Snapshot returns a read-only view of the state as of the given block.
type Snapshot struct {
	db    *DB
	block uint64
}

// SnapshotAt captures the snapshot identifier for block `block`. Reads
// through it resolve against the version history, so later commits do not
// disturb it (until pruning outruns it, which the caller bounds by
// max_span).
func (db *DB) SnapshotAt(block uint64) *Snapshot { return &Snapshot{db: db, block: block} }

// LatestSnapshot captures the snapshot after the last committed block.
func (db *DB) LatestSnapshot() *Snapshot { return db.SnapshotAt(db.Height()) }

// Block returns the snapshot's block number.
func (s *Snapshot) Block() uint64 { return s.block }

// Get reads key as of the snapshot.
func (s *Snapshot) Get(key string) (VersionedValue, bool, error) {
	return s.db.GetAt(key, s.block)
}

// Read implements chaincode.StateReader: Algorithm 1's snapshot read, the
// one reader both endorsement paths (in-process and wire) simulate against.
func (s *Snapshot) Read(key string) ([]byte, seqno.Seq, bool, error) {
	vv, ok, err := s.Get(key)
	if err != nil || !ok {
		return nil, seqno.Seq{}, false, err
	}
	return vv.Value, vv.Version, true, nil
}

// ReadRange implements chaincode.RangeReader over the same snapshot.
func (s *Snapshot) ReadRange(start, end string) ([]string, error) {
	return s.db.KeysInRange(start, end, s.block), nil
}

// ApplyBlock commits the writes of block `block`'s valid transactions, in
// order. Versions are assigned as (block, pos) per the EOV model. Blocks
// must be applied in strictly increasing order; an empty writes slice is
// fine (a block of aborted or read-only transactions).
//
// riders are further records for the backing store (ignored without one):
// they commit in the block's own batch, atomically with its writes and the
// height record — a peer lands the ledger's block record this way.
//
// The new height is published only after every shard write (and the backing
// store's batch) has landed, so concurrent snapshot readers at or below the
// previous height never observe a partial block.
func (db *DB) ApplyBlock(block uint64, txWrites []BlockWrites, riders ...kvstore.BatchOp) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if db.hasAny.Load() && block <= db.height.Load() {
		return fmt.Errorf("statedb: block %d applied out of order (height %d)", block, db.height.Load())
	}
	batch := db.batch[:0]
	for _, tw := range txWrites {
		ver := seqno.Commit(block, tw.Pos)
		for _, w := range tw.Writes {
			vv := VersionedValue{Version: ver, Deleted: w.Delete}
			if !w.Delete {
				vv.Value = append([]byte(nil), w.Value...)
			}
			sh := &db.shards[shardFor(w.Key)]
			sh.mu.Lock()
			versions := sh.hist[w.Key]
			sh.hist[w.Key] = append(versions, vv)
			sh.mu.Unlock()
			if n := len(versions); n > 0 && !versions[n-1].Deleted {
				db.live.sub(pairDigest(w.Key, versions[n-1].Value))
			}
			if !w.Delete {
				db.live.add(pairDigest(w.Key, vv.Value))
			}
			if db.backing != nil {
				batch = append(batch, persistOp(w.Key, vv))
			}
		}
	}
	if db.backing != nil {
		// One atomic batch per block: the store holds all of the block —
		// writes, riders and the height that names it — or none of it.
		batch = append(batch, kvstore.BatchOp{
			Key:   []byte(backingHeightKey),
			Value: seqno.Seq{Block: block}.Bytes(),
		})
		batch = append(batch, riders...)
		if err := db.backing.ApplyBatch(batch); err != nil {
			db.batch = batch[:0]
			return err
		}
	}
	db.batch = batch[:0]
	db.height.Store(block)
	db.hasAny.Store(true)
	return nil
}

// persistOp encodes one latest-version record for the backing store.
func persistOp(key string, vv VersionedValue) kvstore.BatchOp {
	k := []byte(backingStatePrefix + key)
	if vv.Deleted {
		return kvstore.BatchOp{Key: k, Delete: true}
	}
	rec := vv.Version.AppendTo(nil)
	rec = append(rec, vv.Value...)
	return kvstore.BatchOp{Key: k, Value: rec}
}

// PruneSnapshots discards history no longer needed to serve snapshots at or
// after minSnapshotBlock: for each key it keeps the latest version at or
// before the horizon plus everything after it (Section 4.2's periodic
// pruning of staled snapshots).
func (db *DB) PruneSnapshots(minSnapshotBlock uint64) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		//sharp:orderinvariant per-key history truncation keyed by the unique range key; iterations are independent
		for key, versions := range sh.hist {
			// Find the last version with Block <= minSnapshotBlock.
			idx := -1
			for j, vv := range versions {
				if vv.Version.Block <= minSnapshotBlock {
					idx = j
				} else {
					break
				}
			}
			if idx <= 0 {
				continue
			}
			kept := versions[idx:]
			if len(kept) == 1 && kept[0].Deleted {
				// Latest is a tombstone and nothing newer: the key is gone.
				delete(sh.hist, key)
				continue
			}
			sh.hist[key] = append([]VersionedValue(nil), kept...)
		}
		sh.mu.Unlock()
	}
}

// VersionCount reports how many versions of key are retained (tests and
// metrics).
func (db *DB) VersionCount(key string) int {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.hist[key])
}

// Keys returns the number of live keys at the latest snapshot.
func (db *DB) Keys() int {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	n := 0
	for i := range db.shards {
		for _, versions := range db.shards[i].hist {
			if len(versions) > 0 && !versions[len(versions)-1].Deleted {
				n++
			}
		}
	}
	return n
}

// ForEachLatest visits every live key with its latest version, in
// unspecified order. The callback must not mutate the database.
func (db *DB) ForEachLatest(fn func(key string, vv VersionedValue) bool) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	for i := range db.shards {
		//sharp:orderinvariant visitation API documented as unordered; deterministic consumers must sort or fold commutatively
		for key, versions := range db.shards[i].hist {
			last := versions[len(versions)-1]
			if last.Deleted {
				continue
			}
			if !fn(key, last) {
				return
			}
		}
	}
}

// KeysInRange returns, sorted, every key in [start, end) that is live at
// the snapshot after block asOfBlock. The scan is linear in the key count —
// acceptable for the contract-visible state sizes this repository targets
// (the kvstore layer provides indexed range scans where volume matters).
func (db *DB) KeysInRange(start, end string, asOfBlock uint64) []string {
	var out []string
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		//sharp:orderinvariant matched keys are sorted once after the shard sweep, before return
		for key, versions := range sh.hist {
			if key < start || (end != "" && key >= end) {
				continue
			}
			// Last version at or before the snapshot.
			idx := -1
			for j, vv := range versions {
				if vv.Version.Block <= asOfBlock {
					idx = j
				} else {
					break
				}
			}
			if idx >= 0 && !versions[idx].Deleted {
				out = append(out, key)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the database (history and height). It backs the
// serializability verifier, which re-executes committed schedules against a
// fresh copy of the genesis state.
func (db *DB) Clone() *DB {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	out := &DB{live: db.live}
	out.height.Store(db.height.Load())
	out.hasAny.Store(db.hasAny.Load())
	for i := range db.shards {
		src := db.shards[i].hist
		dst := make(map[string][]VersionedValue, len(src))
		for k, versions := range src {
			cp := make([]VersionedValue, len(versions))
			for j, vv := range versions {
				cp[j] = VersionedValue{Version: vv.Version, Deleted: vv.Deleted, Value: append([]byte(nil), vv.Value...)}
			}
			dst[k] = cp
		}
		out.shards[i].hist = dst
	}
	return out
}

// StateFingerprint digests the live (key, value) pairs, ignoring versions and
// history: two databases with identical live contents produce identical
// fingerprints (the serializability property tests and the status probes
// compare end states with it). ApplyBlock maintains it, so reading it costs
// nothing however large the state is.
func (db *DB) StateFingerprint() string {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	return db.live.String()
}
