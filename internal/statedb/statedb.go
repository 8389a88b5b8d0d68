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
// snapshots beyond the max_span horizon are pruned (a peer's committer does
// it after every block), and a read below the pruned horizon is refused
// with ErrPruned rather than answered from what history is left.
//
// # Base and histories
//
// The state a database is loaded with — the genesis (SeedBase) or a durable
// peer's reopened store (New) — is held as a Base: one immutable, sorted set
// of entries, about a quarter of the memory the same keys take as map
// entries. Its keys, offsets, versions and point index sit in regions off
// the GC heap (anonymous mappings, unmapped by a finalizer once no base
// holds them), so the collector neither scans them nor keeps headroom for
// them; only its values are on the heap, because reads hand them out. Every key the package returns from a base is a copy. BuildBase
// makes a base from entries given in strictly ascending key order in two
// passes, sizing the region and then writing each entry straight into it,
// and refuses a key out of order or given twice; NewBase sorts a small
// write set in any order first, and New scans a reopened store twice the
// same way. Seeding or reopening takes the base's fingerprint on every
// processor (the digest is a sum, so chunks add up in any order), on a
// durable peer while the store writes it. Only what blocks write afterwards
// lives in the per-key histories. A key's first write copies its base
// version into its history, so once a key has a history the history alone
// answers for it — exactly the versions it would hold had the base been
// applied as a block — and a key without one reads its base entry. When
// pruning leaves a base key's history a lone tombstone, the history stays,
// emptied, so the base entry it hides cannot resurface, until the next fold
// drops the key from the base and the history with it.
//
// The base does not stay the one the database was loaded with. Once the
// histories have grown by Base.FoldStep (an eighth of the base) since the
// last fold, the prune that finds them folds: every history that is one
// live version at or below the horizon is merged into a new base, entry
// versions and all (Base.Merge, one ascending pass, which shares the old
// base's keys and probe table when it adds or drops no key), the new base
// is published, and those histories go. An emptied history goes too, and
// its key leaves the new base. A fold changes no read: the folded version is
// the only one a readable snapshot could see, and a dropped key is deleted
// at every readable snapshot. Tombstones and histories of several versions
// stay. A range read (KeysInRange) finds the base keys in range by binary
// search and scans the histories whole, so it costs the base keys in range
// plus every key written since the last fold, not the whole base.
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
//     shard's write lock; a fold builds its base and the shards' new maps
//     under applyMu alone, and takes each shard's write lock only to swap
//     its map in;
//   - whole-database views (Clone, ForEachLatest) take applyMu
//     alone — it excludes every mutator, and concurrent shard readers are
//     harmless; StateFingerprint takes it too, to read the running digest
//     the mutators maintain.
//
// The base is an atomic pointer. A fold publishes the new one before it
// swaps out the maps that still hold the folded histories, and a point
// reader loads it only after its history lookup missed, under the shard
// lock: a miss that follows the swap follows the publish, so it reads the
// new base, and one before the swap reads either, which agree on every key
// without a history. A range read checks that the base it scanned is still
// the published one and scans again if not, as ReadRange re-checks the
// horizon. Readers never wait on a fold's build.
//
// Snapshot isolation does not depend on the locks: ApplyBlock publishes the
// new height only after every shard write of the block has landed, and
// snapshot reads filter versions by block, so a reader at any snapshot
// <= Height() can never observe a torn block (asserted by the -race stress
// test).
package statedb

import (
	"errors"
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
func shardFor[K string | []byte](key K) uint32 {
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
	live    liveSum // fingerprint of the live contents, guarded by applyMu

	// horizon is the highest block PruneSnapshots has pruned to (on a
	// reopened store, the height it was loaded at): snapshots from it on
	// read exactly, older ones get ErrPruned. It is raised before any
	// version goes.
	horizon atomic.Uint64
	// written lists every write applied above the horizon, oldest first:
	// only these keys can hold a version a later PruneSnapshots discards.
	// Guarded by applyMu.
	written []blockKey
	// base is the state the database was loaded with and the writes folds
	// settled since; see the package comment. A reader loads it after its
	// history lookup missed, under that key's shard lock.
	base atomic.Pointer[Base]
	// settled is how many histories the last fold left (guarded by
	// applyMu); the next fold waits until FoldStep more have gathered.
	settled int
	folds   atomic.Uint64
}

// blockKey records that block wrote key.
type blockKey struct {
	block uint64
	key   string
}

// ErrPruned refuses a snapshot read below the pruned horizon: the history
// that would answer it is gone.
var ErrPruned = errors.New("statedb: snapshot below the pruned horizon")

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
		// The store keeps latest versions only: nothing older is left.
		db.horizon.Store(seq.Block)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The store scans in ascending key order, the order a base is built in;
	// the build scans it twice, to size the base and then to fill it.
	base, err := buildBase(nil, func(put func(key, val []byte, ver seqno.Seq) error) error {
		return opts.Backing.Scan([]byte(backingStatePrefix), func(k, raw []byte) error {
			key := k[len(backingStatePrefix):]
			if len(raw) < seqno.EncodedLen() {
				return fmt.Errorf("statedb: corrupt record for %q", key)
			}
			ver, err := seqno.FromBytes(raw)
			if err != nil {
				return err
			}
			return put(key, raw[seqno.EncodedLen():], ver)
		})
	})
	if err != nil {
		return nil, err
	}
	db.base.Store(base)
	db.live = base.digest()
	return db, nil
}

// SeedBase applies base as the database's first block, block, and holds it
// as its base: the same state, reads and fingerprint as ApplyBlock(block,
// ...) of its writes, each entry keeping its version, in a fraction of the
// memory. A backing store must be empty; the base becomes its first
// snapshot (kvstore.DB.Install), streamed in key order with the height
// record, so the store holds what ApplyBlock would have persisted without a
// batch or a log record of it. The base's fingerprint is taken meanwhile.
func (db *DB) SeedBase(block uint64, base *Base) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if db.hasAny.Load() {
		return fmt.Errorf("statedb: base seeded at height %d", db.height.Load())
	}
	live := make(chan liveSum, 1)
	go func() { live <- base.digest() }()
	var err error
	if db.backing != nil {
		err = db.backing.Install(func(put func(key, value []byte) error) error {
			// "meta/height" sorts before every "s/" key.
			if err := put([]byte(backingHeightKey), seqno.Seq{Block: block}.Bytes()); err != nil {
				return err
			}
			var key, rec []byte
			var putErr error
			base.walk(0, base.Len(), func(i int, k []byte) bool {
				key = append(append(key[:0], backingStatePrefix...), k...)
				rec = append(base.version(i).AppendTo(rec[:0]), base.value(i)...)
				putErr = put(key, rec)
				return putErr == nil
			})
			return putErr
		})
	}
	sum := <-live
	if err != nil {
		return err
	}
	db.live = sum
	db.base.Store(base)
	db.height.Store(block)
	db.hasAny.Store(true)
	return nil
}

// Height returns the number of the last committed block.
func (db *DB) Height() uint64 { return db.height.Load() }

// Seeded reports whether any block — the genesis, block 0, included — has
// been applied; on a backed database, whether the store held a height
// record. Height alone cannot tell a fresh database from a seeded one.
func (db *DB) Seeded() bool { return db.hasAny.Load() }

// Durable reports whether a backing store persists each applied block.
func (db *DB) Durable() bool { return db.backing != nil }

// Checkpoints returns how many checkpoints the backing store has taken since
// it was opened (kvstore.DB.Checkpoints); 0 without one.
func (db *DB) Checkpoints() uint64 {
	if db.backing == nil {
		return 0
	}
	return db.backing.Checkpoints()
}

// Get returns the latest version of key — a per-key point read. Cross-key
// consistency under concurrent commits needs GetAt/SnapshotAt.
func (db *DB) Get(key string) (VersionedValue, bool) {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	versions, ok := sh.hist[key]
	if !ok {
		base := db.base.Load()
		if i := base.find(key); i >= 0 {
			return base.entry(i), true
		}
		return VersionedValue{}, false
	}
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
// torn-free with respect to concurrently applying blocks; reads below the
// pruned horizon fail with ErrPruned.
func (db *DB) GetAt(key string, asOfBlock uint64) (VersionedValue, bool, error) {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// Checked under the shard lock: a prune raises the horizon before it
	// takes this lock to trim, so a horizon still at or below asOfBlock
	// here keeps the versions this read needs until it is done.
	if err := db.readable(asOfBlock); err != nil {
		return VersionedValue{}, false, err
	}
	versions, ok := sh.hist[key]
	if !ok {
		base := db.base.Load()
		if i := base.find(key); i >= 0 && base.version(i).Block <= asOfBlock {
			return base.entry(i), true, nil
		}
		return VersionedValue{}, false, nil
	}
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
		// The key did not exist at that snapshot.
		return VersionedValue{}, false, nil
	}
	vv := versions[lo-1]
	if vv.Deleted {
		return VersionedValue{}, false, nil
	}
	return vv, true, nil
}

// readable refuses a snapshot below the pruned horizon.
func (db *DB) readable(asOfBlock uint64) error {
	if h := db.horizon.Load(); asOfBlock < h {
		return fmt.Errorf("%w: block %d, horizon %d", ErrPruned, asOfBlock, h)
	}
	return nil
}

// Snapshot returns a read-only view of the state as of the given block.
type Snapshot struct {
	db    *DB
	block uint64
}

// SnapshotAt captures the snapshot identifier for block `block`. Reads
// through it resolve against the version history, so later commits do not
// disturb it; once pruning outruns it, its reads fail with ErrPruned.
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

// ReadRange implements chaincode.RangeReader over the same snapshot. The
// horizon is checked after the scan: it only rises, and a prune raises it
// before it trims, so a prune that overlapped the scan is seen here.
func (s *Snapshot) ReadRange(start, end string) ([]string, error) {
	keys := s.db.KeysInRange(start, end, s.block)
	if err := s.db.readable(s.block); err != nil {
		return nil, err
	}
	return keys, nil
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
	if db.backing != nil {
		if err := db.persist(block, txWrites, riders); err != nil {
			return err
		}
	}
	for _, tw := range txWrites {
		ver := seqno.Commit(block, tw.Pos)
		for _, w := range tw.Writes {
			vv := VersionedValue{Version: ver, Deleted: w.Delete}
			if !w.Delete {
				vv.Value = append([]byte(nil), w.Value...)
			}
			sh := &db.shards[shardFor(w.Key)]
			sh.mu.Lock()
			versions, ok := sh.hist[w.Key]
			if !ok {
				versions = db.base.Load().history(w.Key)
			}
			sh.hist[w.Key] = append(versions, vv)
			sh.mu.Unlock()
			if n := len(versions); n > 0 && !versions[n-1].Deleted {
				db.live.sub(pairDigest(w.Key, versions[n-1].Value))
			}
			if !w.Delete {
				db.live.add(pairDigest(w.Key, vv.Value))
			}
			db.written = append(db.written, blockKey{block, w.Key})
		}
	}
	db.height.Store(block)
	db.hasAny.Store(true)
	return nil
}

// persist lands one block in the backing store as one atomic batch — its
// writes, the height record that names it, then riders — so the store holds
// all of the block or none of it. The batch is the block's own, sized once:
// a reused one would pin the largest block's records (the genesis) for the
// peer's life.
func (db *DB) persist(block uint64, txWrites []BlockWrites, riders []kvstore.BatchOp) error {
	n := 1 + len(riders)
	for _, tw := range txWrites {
		n += len(tw.Writes)
	}
	batch := make([]kvstore.BatchOp, 0, n)
	for _, tw := range txWrites {
		ver := seqno.Commit(block, tw.Pos)
		for _, w := range tw.Writes {
			batch = append(batch, persistOp(w.Key, VersionedValue{Value: w.Value, Version: ver, Deleted: w.Delete}))
		}
	}
	batch = append(batch, kvstore.BatchOp{Key: []byte(backingHeightKey), Value: seqno.Seq{Block: block}.Bytes()})
	return db.backing.ApplyBatch(append(batch, riders...))
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
//
// It visits only the keys written by blocks above the previous horizon and
// at or below this one. Any other key has no version in that range, so it
// already holds at most one version at or below the horizon, and a sweep
// of every key would leave it as it is.
func (db *DB) PruneSnapshots(minSnapshotBlock uint64) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if minSnapshotBlock > db.horizon.Load() {
		db.horizon.Store(minSnapshotBlock)
	}
	n := 0
	for ; n < len(db.written) && db.written[n].block <= minSnapshotBlock; n++ {
		w := db.written[n]
		sh := &db.shards[shardFor(w.key)]
		sh.mu.Lock()
		db.trimKey(sh, w.key, minSnapshotBlock)
		sh.mu.Unlock()
	}
	rest := copy(db.written, db.written[n:])
	clear(db.written[rest:])
	db.written = db.written[:rest]
	if rest < cap(db.written)/4 { // let go of the capacity the largest block left
		db.written = append([]blockKey(nil), db.written...)
	}
	histories := 0
	for i := range db.shards {
		histories += len(db.shards[i].hist)
	}
	if histories >= db.settled+db.base.Load().FoldStep() {
		db.fold()
	}
}

// FoldStep is how many histories (shadow entries, on an orderer) a state
// over b gathers beyond those its last fold left before it folds again: an
// eighth of b, and at least foldMin, so that a small state does not rebuild
// its base every block.
func (b *Base) FoldStep() int { return max(b.Len()/8, foldMin) }

const foldMin = 1 << 10

// fold merges every history that is one live version at or below the
// horizon into a new base, drops from it every key whose history trimKey
// emptied, publishes it and drops those histories. The caller holds
// applyMu, which keeps every other writer of the histories out while fold
// reads them, and readers run on: the base is built beside the one they
// read, published before the histories go, and each shard's map is rebuilt
// without the folded keys — Go maps never shrink — and swapped in under its
// lock. A history of several versions, or of a tombstone, stays.
func (db *DB) fold() {
	horizon := db.horizon.Load()
	settled := func(versions []VersionedValue) bool {
		return len(versions) == 0 || len(versions) == 1 && !versions[0].Deleted && versions[0].Version.Block <= horizon
	}
	n := 0
	for i := range db.shards {
		n += len(db.shards[i].hist)
	}
	keys := make([]string, 0, n)
	var kept [numShards]map[string][]VersionedValue
	left := 0
	for i := range db.shards {
		hist, from := db.shards[i].hist, len(keys)
		//sharp:orderinvariant the settled keys of every shard are sorted once after the sweep, before any use
		for key, versions := range hist {
			if settled(versions) {
				keys = append(keys, key)
			}
		}
		kept[i] = make(map[string][]VersionedValue, len(hist)-(len(keys)-from))
		//sharp:orderinvariant copies each unsettled history into the rebuilt map under the same key; the map is the same in any visit order
		for key, versions := range hist {
			if !settled(versions) {
				kept[i][key] = versions
			}
		}
		left += len(kept[i])
	}
	sort.Strings(keys)
	ups := make([]Entry, len(keys))
	for j, key := range keys {
		if versions := db.shards[shardFor(key)].hist[key]; len(versions) == 0 {
			ups[j] = Entry{Key: key, Deleted: true}
		} else {
			ups[j] = Entry{Key: key, Value: versions[0].Value, Version: versions[0].Version}
		}
	}
	base, err := db.base.Load().Merge(ups)
	if err != nil || len(ups) == 0 {
		// Nothing settled, or a base past 4 GiB: the histories keep
		// answering, and the next fold waits for another FoldStep.
		db.settled = left + len(ups)
		return
	}
	db.base.Store(base)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		sh.hist = kept[i]
		sh.mu.Unlock()
	}
	db.settled = left
	db.folds.Add(1)
}

// Folds returns how many folds the database has made since it was opened.
func (db *DB) Folds() uint64 { return db.folds.Load() }

// trimKey cuts key's history to the latest version at or before horizon and
// everything after it, and drops the key once that is a lone tombstone — or,
// over a base key, empties its history, which keeps the base entry hidden
// until the next fold drops both.
// The kept versions slide to the front of the same array, which later
// appends then reuse (the shard's write lock keeps readers out meanwhile).
func (db *DB) trimKey(sh *shard, key string, horizon uint64) {
	versions := sh.hist[key]
	idx := -1
	for j, vv := range versions {
		if vv.Version.Block > horizon {
			break
		}
		idx = j
	}
	if idx <= 0 {
		return
	}
	if idx == len(versions)-1 && versions[idx].Deleted {
		// Latest is a tombstone and nothing newer: the key is gone.
		if db.base.Load().find(key) >= 0 {
			sh.hist[key] = nil
		} else {
			delete(sh.hist, key)
		}
		return
	}
	n := copy(versions, versions[idx:])
	clear(versions[n:])
	sh.hist[key] = versions[:n]
}

// VersionCount reports how many versions of key are retained (tests and
// metrics).
func (db *DB) VersionCount(key string) int {
	sh := &db.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if versions, ok := sh.hist[key]; ok {
		return len(versions)
	}
	if db.base.Load().find(key) >= 0 {
		return 1
	}
	return 0
}

// hasHistory reports whether key has a history, which then answers for it
// instead of the base. The caller holds applyMu or key's shard lock.
func (db *DB) hasHistory(key []byte) bool {
	_, ok := db.shards[shardFor(key)].hist[string(key)]
	return ok
}

// ForEachLatest visits every live key with its latest version, in
// unspecified order. The callback must not mutate the database.
func (db *DB) ForEachLatest(fn func(key string, vv VersionedValue) bool) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	for i := range db.shards {
		//sharp:orderinvariant visitation API documented as unordered; deterministic consumers must sort or fold commutatively
		for key, versions := range db.shards[i].hist {
			if len(versions) == 0 || versions[len(versions)-1].Deleted {
				continue
			}
			if !fn(key, versions[len(versions)-1]) {
				return
			}
		}
	}
	base := db.base.Load()
	base.walk(0, base.Len(), func(i int, key []byte) bool {
		return db.hasHistory(key) || fn(string(key), base.entry(i))
	})
}

// KeysInRange returns, sorted, every key in [start, end) that is live at
// the snapshot after block asOfBlock. The base's keys are found by binary
// search, each in range then read under its shard's lock; the histories are
// scanned whole, so the cost is linear in the keys written since the last
// fold plus the base keys in range — acceptable for the contract-visible
// state sizes this repository targets.
//
// A fold publishes its base before it drops the histories it folded, so a
// scan that loads the same base before and after saw every key once: from
// the histories, or from that base. One that sees a new base scans again.
func (db *DB) KeysInRange(start, end string, asOfBlock uint64) []string {
	for {
		base := db.base.Load()
		out := db.keysInRange(base, start, end, asOfBlock)
		if db.base.Load() == base {
			return out
		}
	}
}

func (db *DB) keysInRange(base *Base, start, end string, asOfBlock uint64) []string {
	var out []string
	lo, hi := base.span(start, end)
	base.walk(lo, hi, func(i int, key []byte) bool {
		sh := &db.shards[shardFor(key)]
		sh.mu.RLock()
		versions, ok := sh.hist[string(key)]
		live := liveAt(versions, asOfBlock)
		if !ok {
			live = base.version(i).Block <= asOfBlock
		}
		sh.mu.RUnlock()
		if live {
			out = append(out, string(key))
		}
		return true
	})
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		//sharp:orderinvariant matched keys are sorted once after the shard sweep, before return
		for key, versions := range sh.hist {
			// A base key was decided above, atomically with its history.
			if key < start || (end != "" && key >= end) || base.find(key) >= 0 {
				continue
			}
			if liveAt(versions, asOfBlock) {
				out = append(out, key)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// liveAt reports whether a history's last version at or before asOfBlock
// exists and is not a tombstone.
func liveAt(versions []VersionedValue, asOfBlock uint64) bool {
	idx := -1
	for j, vv := range versions {
		if vv.Version.Block > asOfBlock {
			break
		}
		idx = j
	}
	return idx >= 0 && !versions[idx].Deleted
}

// Clone copies the database (history and height), sharing the immutable
// base. It backs the serializability verifier, which re-executes committed
// schedules against a fresh copy of the genesis state.
func (db *DB) Clone() *DB {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	out := &DB{live: db.live, written: append([]blockKey(nil), db.written...), settled: db.settled}
	out.base.Store(db.base.Load())
	out.height.Store(db.height.Load())
	out.hasAny.Store(db.hasAny.Load())
	out.horizon.Store(db.horizon.Load())
	for i := range db.shards {
		src := db.shards[i].hist
		dst := make(map[string][]VersionedValue, len(src))
		//sharp:orderinvariant copies each key's history into the clone under the same key; the copy is the same in any visit order
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
