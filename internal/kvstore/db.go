// Package kvstore is the peer's durable store: a log of write batches and
// one snapshot of what the log held at its last checkpoint, both in the
// CRC'd record format of wal.go, in one directory (wal.log, snapshot).
//
// ApplyBatch appends one record to the log — handed to the OS before it
// returns, fsynced as well under SyncWrites — so a crash leaves each batch
// whole or absent. The store holds no keys or values in memory: its one
// read, Scan, folds the snapshot and then the log from disk. Its callers
// write one batch per block and read only when they open (statedb.New and
// ledger.NewChain), so a read that costs a pass over the files buys a store
// that costs no memory.
//
// Checkpoints bound the log. Once it outgrows both the snapshot and
// checkpointFloor, the store folds the two into snapshot.tmp, fsyncs it,
// renames it over snapshot, fsyncs the directory and truncates the log. A
// crash between any two steps reopens to every acknowledged batch:
//
//   - before the rename, the old snapshot and the whole log are in place, and
//     Open deletes the orphaned snapshot.tmp;
//   - after the rename, the old log replays over a snapshot that already
//     holds it, and replaying a sequence of puts and deletes a second time
//     changes nothing;
//   - after the truncation, the snapshot holds everything.
//
// A snapshot is renamed into place only whole and fsynced, so a snapshot
// that does not end on a whole record is refused, not read as a prefix. A
// torn or zero-filled log tail is the crash the log exists to survive: Open
// cuts it off, and the next append lands after the intact records.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

const (
	walName         = "wal.log"
	snapshotName    = "snapshot"
	snapshotTmpName = "snapshot.tmp"
	// checkpointFloor is the log size below which no checkpoint is taken,
	// however small the snapshot: folding that much at open is cheap.
	checkpointFloor = 4 << 20
	// snapshotRecordBytes caps the keys and values one snapshot record holds.
	snapshotRecordBytes = 1 << 20
)

// Options configures a store.
type Options struct {
	// Dir is the directory holding the log and the snapshot. Required.
	Dir string
	// SyncWrites fsyncs the log on every batch: durable across a machine
	// crash but slow, so off by default. Either way each batch reaches the
	// OS before its call returns, so a killed process loses none.
	SyncWrites bool
}

// BatchOp is one mutation of a write batch.
type BatchOp struct {
	Key, Value []byte
	Delete     bool
}

// DB is a durable key-value store written in atomic batches. All methods are
// safe for concurrent use.
type DB struct {
	mu       sync.Mutex
	dir      string
	log      *wal
	snapSize int64 // bytes in the snapshot the log folds over
	closed   bool
}

var errClosed = errors.New("kvstore: store closed")

// Open opens (creating if necessary) the store in opts.Dir.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, errors.New("kvstore: Options.Dir is empty")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir: %w", err)
	}
	// The LSM layout this store replaced kept most of its contents in
	// SSTables listed by a MANIFEST; read as a log, it would look nearly empty.
	if _, err := os.Stat(filepath.Join(opts.Dir, "MANIFEST")); err == nil {
		return nil, fmt.Errorf("kvstore: %s holds a MANIFEST: SSTables of an older layout, which this store does not read", opts.Dir)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	db := &DB{dir: opts.Dir}
	// A snapshot.tmp is a checkpoint that crashed before its rename: the
	// snapshot and the log it was folded from are still in place.
	if err := os.Remove(db.path(snapshotTmpName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	size, err := replayWhole(db.path(snapshotName), nil)
	if err != nil {
		return nil, err
	}
	db.snapSize = size
	intact, _, err := replay(db.path(walName), nil)
	if err != nil {
		return nil, err
	}
	if db.log, err = openWAL(db.path(walName), intact, opts.SyncWrites); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) path(name string) string { return filepath.Join(db.dir, name) }

// ApplyBatch applies every operation atomically: as one checksummed log
// record, handed to the OS before the call returns. A crash leaves the whole
// batch or none of it — the per-block commit path relies on that to land a
// block's record, writes and height together.
func (db *DB) ApplyBatch(ops []BatchOp) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if err := db.log.append(ops); err != nil {
		return err
	}
	if db.log.size > max(db.snapSize, checkpointFloor) {
		return db.checkpoint()
	}
	return nil
}

// Scan calls fn with every live key beginning with prefix and its value, in
// ascending key order, and stops at fn's first error. It folds the snapshot
// and the log from disk, so each call is a pass over the store; fn sees the
// store as of the fold, and key and value are fn's to keep.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.Lock()
	live, err := db.fold(prefix)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	for _, op := range sorted(live) {
		if err := fn(op.Key, op.Value); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.log.close()
}

// fold reads the snapshot and then the log into the live contents under
// prefix; the caller holds mu.
func (db *DB) fold(prefix []byte) (map[string][]byte, error) {
	if db.closed {
		return nil, errClosed
	}
	live := map[string][]byte{}
	apply := func(ops []BatchOp) {
		for _, op := range ops {
			switch {
			case !bytes.HasPrefix(op.Key, prefix):
			case op.Delete:
				delete(live, string(op.Key))
			default:
				live[string(op.Key)] = bytes.Clone(op.Value)
			}
		}
	}
	if _, err := replayWhole(db.path(snapshotName), apply); err != nil {
		return nil, err
	}
	// Open cut the log back to whole records and only whole ones follow.
	if _, err := replayWhole(db.path(walName), apply); err != nil {
		return nil, err
	}
	return live, nil
}

// checkpoint folds the log into a new snapshot and empties it.
func (db *DB) checkpoint() error {
	for _, step := range db.checkpointSteps() {
		if err := step(); err != nil {
			return fmt.Errorf("kvstore: checkpoint: %w", err)
		}
	}
	return nil
}

// checkpointSteps returns a checkpoint's steps in the order they reach the
// disk. A crash after any prefix of them reopens to the same contents (see
// the package comment); the tests run each prefix and reopen.
func (db *DB) checkpointSteps() []func() error {
	var size int64
	return []func() error{
		func() error { // snapshot.tmp, written whole and fsynced
			live, err := db.fold(nil)
			if err != nil {
				return err
			}
			size, err = writeSnapshot(db.path(snapshotTmpName), sorted(live))
			return err
		},
		func() error { // renamed over the snapshot, the rename fsynced
			if err := os.Rename(db.path(snapshotTmpName), db.path(snapshotName)); err != nil {
				return err
			}
			db.snapSize = size
			return SyncDir(db.dir)
		},
		db.log.truncate,
	}
}

// writeSnapshot writes puts to path as records each holding about
// snapshotRecordBytes of keys and values, fsyncs the file and returns its
// size.
func writeSnapshot(path string, puts []BatchOp) (size int64, err error) {
	w, err := openWAL(path, 0, false)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	for start := 0; start < len(puts); {
		end, held := start, 0
		for ; end < len(puts) && held < snapshotRecordBytes; end++ {
			held += len(puts[end].Key) + len(puts[end].Value)
		}
		if err := w.append(puts[start:end]); err != nil {
			return 0, err
		}
		start = end
	}
	return w.size, w.f.Sync()
}

// replayWhole is replay for a file written only in whole records — the
// snapshot, which is renamed into place complete, or the log once Open has
// cut it back — where anything else past the last record is corruption, not
// a crash. It returns the file's size.
func replayWhole(path string, fn func(ops []BatchOp)) (int64, error) {
	intact, size, err := replay(path, fn)
	if err == nil && intact != size {
		err = fmt.Errorf("kvstore: %s: %d bytes, of which only %d are whole records", path, size, intact)
	}
	return size, err
}

// SyncDir fsyncs a directory, making a rename inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sorted returns the contents of live as puts in ascending key order.
func sorted(live map[string][]byte) []BatchOp {
	puts := make([]BatchOp, 0, len(live))
	for k, v := range live {
		puts = append(puts, BatchOp{Key: []byte(k), Value: v})
	}
	slices.SortFunc(puts, func(a, b BatchOp) int { return bytes.Compare(a.Key, b.Key) })
	return puts
}
