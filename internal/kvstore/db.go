package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Options configures a store.
type Options struct {
	// Dir is the directory holding the WAL, SSTables and manifest. Empty
	// means a purely in-memory store: no persistence, never flushed.
	Dir string
	// MemtableBytes is the flush threshold. Default 4 MiB.
	MemtableBytes int
	// CompactAfter triggers a full merge once the table count exceeds it.
	// Default 4.
	CompactAfter int
	// SyncWrites fsyncs the WAL on every batch: durable across a machine
	// crash but slow, so off by default. Either way each batch reaches the
	// OS before its call returns, so a killed process loses none.
	SyncWrites bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemtableBytes <= 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.CompactAfter <= 0 {
		out.CompactAfter = 4
	}
	return out
}

// DB is an ordered key-value store. All methods are safe for concurrent use
// except that iterators must not overlap mutations (the callers in this
// repository all iterate under their own synchronization).
type DB struct {
	mu     sync.RWMutex
	opts   Options
	mem    *skiplist
	tables []*sstable // newest first
	wal    *wal
	nextID uint64
	closed bool
}

const (
	manifestName = "MANIFEST"
	walName      = "wal.log"
)

// Open opens (creating if necessary) the store described by opts.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{opts: opts, mem: newSkiplist(), nextID: 1}
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir: %w", err)
	}
	ids, err := readManifest(filepath.Join(opts.Dir, manifestName))
	if err != nil {
		return nil, err
	}
	for _, id := range ids { // manifest lists newest first
		t, err := openSSTable(db.tablePath(id))
		if err != nil {
			return nil, err
		}
		db.tables = append(db.tables, t)
		if id >= db.nextID {
			db.nextID = id + 1
		}
	}
	db.removeStaleTables(ids)
	intact, err := replayWAL(filepath.Join(opts.Dir, walName), db.applyLocked)
	if err != nil {
		return nil, err
	}
	if db.wal, err = openWAL(filepath.Join(opts.Dir, walName), intact, opts.SyncWrites); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) tablePath(id uint64) string {
	return filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.sst", id))
}

// removeStaleTables deletes .sst files not referenced by the manifest —
// leftovers from a crash between table write and manifest swap.
func (db *DB) removeStaleTables(live []uint64) {
	alive := make(map[uint64]bool, len(live))
	for _, id := range live {
		alive[id] = true
	}
	entries, err := os.ReadDir(db.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil || alive[id] {
			continue
		}
		_ = os.Remove(filepath.Join(db.opts.Dir, name))
	}
}

func readManifest(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var ids []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("kvstore: corrupt manifest: %w", err)
		}
		ids = append(ids, id)
	}
	return ids, sc.Err()
}

// writeManifest atomically replaces the manifest with the given table ids
// (newest first) via a temp-file rename.
func (db *DB) writeManifest(ids []uint64) error {
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d\n", id)
	}
	tmp := filepath.Join(db.opts.Dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(db.opts.Dir, manifestName))
}

func (db *DB) liveTableIDs() []uint64 {
	ids := make([]uint64, 0, len(db.tables))
	for _, t := range db.tables {
		base := strings.TrimSuffix(filepath.Base(t.path), ".sst")
		id, _ := strconv.ParseUint(base, 10, 64)
		ids = append(ids, id)
	}
	return ids
}

// Put stores value under key, overwriting any previous value.
func (db *DB) Put(key, value []byte) error {
	return db.ApplyBatch([]BatchOp{{Key: key, Value: value}})
}

// Delete removes key. Deleting an absent key is a no-op.
func (db *DB) Delete(key []byte) error {
	return db.ApplyBatch([]BatchOp{{Key: key, Delete: true}})
}

// BatchOp is one mutation of a write batch.
type BatchOp struct {
	Key, Value []byte
	Delete     bool
}

// ApplyBatch applies every operation atomically: under one lock
// acquisition, as one checksummed WAL record handed to the OS before the
// call returns, with the memtable-flush decision deferred to the end. A
// crash leaves the whole batch or none of it — the per-block commit path
// relies on that to land a block's record, writes and height together.
func (db *DB) ApplyBatch(ops []BatchOp) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	if db.wal != nil {
		if err := db.wal.append(ops); err != nil {
			return err
		}
	}
	db.applyLocked(ops)
	return db.maybeFlushLocked()
}

// applyLocked folds ops into the memtable (live writes and WAL replay).
func (db *DB) applyLocked(ops []BatchOp) {
	for _, op := range ops {
		if op.Delete {
			db.mem.set(op.Key, nil, true)
		} else {
			db.mem.set(op.Key, append([]byte(nil), op.Value...), false)
		}
	}
}

// Get returns the value stored under key.
func (db *DB) Get(key []byte) (value []byte, found bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, fmt.Errorf("kvstore: store closed")
	}
	if v, tomb, ok := db.mem.get(key); ok {
		if tomb {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	for _, t := range db.tables {
		if v, tomb, ok := t.get(key); ok {
			if tomb {
				return nil, false, nil
			}
			return append([]byte(nil), v...), true, nil
		}
	}
	return nil, false, nil
}

// maybeFlushLocked flushes the memtable to a new SSTable when it exceeds
// the configured threshold, then compacts if too many tables accumulated.
func (db *DB) maybeFlushLocked() error {
	if db.opts.Dir == "" || db.mem.bytes < db.opts.MemtableBytes {
		return nil
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if db.mem.length == 0 {
		return nil
	}
	id := db.nextID
	db.nextID++
	path := db.tablePath(id)
	if err := writeSSTable(path, db.mem.iterator()); err != nil {
		return err
	}
	t, err := openSSTable(path)
	if err != nil {
		return err
	}
	db.tables = append([]*sstable{t}, db.tables...)
	if err := db.writeManifest(db.liveTableIDs()); err != nil {
		return err
	}
	// The WAL's contents are now durable in the table; start a fresh log.
	if err := db.wal.close(); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(db.opts.Dir, walName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	w, err := openWAL(filepath.Join(db.opts.Dir, walName), 0, db.opts.SyncWrites)
	if err != nil {
		return err
	}
	db.wal = w
	db.mem = newSkiplist()
	if len(db.tables) > db.opts.CompactAfter {
		return db.compactLocked()
	}
	return nil
}

// compactLocked merges every table into one, dropping tombstones (a full
// merge sees the complete history, so deletions become safe to forget).
func (db *DB) compactLocked() error {
	merged := newSkiplist()
	// Iterate oldest table first so newer entries overwrite older ones.
	for i := len(db.tables) - 1; i >= 0; i-- {
		for it := db.tables[i].iteratorFrom(nil); it.valid(); it.next() {
			k, v, tomb := it.entry()
			merged.set(k, append([]byte(nil), v...), tomb)
		}
	}
	// Drop tombstones by rebuilding without them.
	clean := newSkiplist()
	for it := merged.iterator(); it.valid(); it.next() {
		k, v, tomb := it.entry()
		if !tomb {
			clean.set(k, v, false)
		}
	}
	old := db.tables
	if clean.length == 0 {
		db.tables = nil
	} else {
		id := db.nextID
		db.nextID++
		path := db.tablePath(id)
		if err := writeSSTable(path, clean.iterator()); err != nil {
			return err
		}
		t, err := openSSTable(path)
		if err != nil {
			return err
		}
		db.tables = []*sstable{t}
	}
	if err := db.writeManifest(db.liveTableIDs()); err != nil {
		return err
	}
	for _, t := range old {
		_ = os.Remove(t.path)
	}
	return nil
}

// Flush forces the memtable to disk (no-op for in-memory stores).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.opts.Dir == "" {
		return nil
	}
	return db.flushLocked()
}

// Close releases the store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// Len reports the number of live keys (linear scan; meant for tests and
// small stores).
func (db *DB) Len() int {
	n := 0
	for it := db.NewIterator(nil, nil); it.Valid(); it.Next() {
		n++
	}
	return n
}

// PrefixSuccessor returns the smallest byte string greater than every string
// having the given prefix, or nil when no such bound exists (all-0xff).
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			out := append([]byte(nil), prefix[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}

// NewIterator returns an ascending iterator over keys in [start, limit);
// nil bounds are unbounded. The iterator observes the store as of the call
// and must not overlap mutations.
func (db *DB) NewIterator(start, limit []byte) *Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.newIteratorLocked(start, limit)
}

// NewPrefixIterator iterates every key beginning with prefix.
func (db *DB) NewPrefixIterator(prefix []byte) *Iterator {
	return db.NewIterator(prefix, PrefixSuccessor(prefix))
}

func (db *DB) newIteratorLocked(start, limit []byte) *Iterator {
	sources := make([]tableSource, 0, 1+len(db.tables))
	sources = append(sources, &memSource{it: db.mem.iteratorFrom(start)})
	for _, t := range db.tables {
		sources = append(sources, &sstSource{it: t.iteratorFrom(start)})
	}
	it := &Iterator{sources: sources, limit: limit}
	it.advance()
	return it
}

// tableSource is one layer of the merge: the memtable or an SSTable.
// Sources are ordered newest-first, and the merge lets the newest layer
// shadow older ones.
type tableSource interface {
	valid() bool
	next()
	entry() (key, value []byte, tombstone bool)
}

type memSource struct{ it *skiplistIterator }

func (s *memSource) valid() bool { return s.it.valid() }
func (s *memSource) next()       { s.it.next() }
func (s *memSource) entry() (key, value []byte, tombstone bool) {
	return s.it.entry()
}

type sstSource struct{ it *sstableIterator }

func (s *sstSource) valid() bool { return s.it.valid() }
func (s *sstSource) next()       { s.it.next() }
func (s *sstSource) entry() (key, value []byte, tombstone bool) {
	return s.it.entry()
}

// Iterator merges the memtable and SSTables into one ascending stream of
// live (non-tombstoned) entries.
type Iterator struct {
	sources []tableSource // newest first
	limit   []byte
	key     []byte
	value   []byte
	done    bool
}

// advance finds the next live entry at or after the sources' current
// positions.
func (it *Iterator) advance() {
	for {
		var (
			minKey []byte
			found  bool
		)
		for _, s := range it.sources {
			if !s.valid() {
				continue
			}
			k, _, _ := s.entry()
			if !found || bytes.Compare(k, minKey) < 0 {
				minKey, found = k, true
			}
		}
		if !found || (it.limit != nil && bytes.Compare(minKey, it.limit) >= 0) {
			it.done = true
			return
		}
		// The newest source holding minKey wins; all holders advance.
		var (
			value     []byte
			tombstone bool
			taken     bool
		)
		for _, s := range it.sources {
			if !s.valid() {
				continue
			}
			if k, v, tomb := s.entry(); bytes.Equal(k, minKey) {
				if !taken {
					value, tombstone, taken = v, tomb, true
				}
				s.next()
			}
		}
		if tombstone {
			continue
		}
		it.key = append(it.key[:0], minKey...)
		it.value = append(it.value[:0], value...)
		return
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.done }

// Next moves to the following live entry.
func (it *Iterator) Next() { it.advance() }

// Key returns the current key. The slice is reused by Next; copy to retain.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value. The slice is reused by Next; copy to
// retain.
func (it *Iterator) Value() []byte { return it.value }
