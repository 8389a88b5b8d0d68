// Package kvstore is the peer's durable store: a log of write batches and
// one snapshot, both in the CRC'd record format of wal.go, in one directory
// (wal.log, snapshot). The snapshot holds live keys only, in ascending key
// order.
//
// ApplyBatch appends one record to the log — handed to the OS before it
// returns, fsynced as well under SyncWrites — so a crash leaves each batch
// whole or absent. A record that fails to reach the file whole is cut back
// off it before ApplyBatch returns the error. The store holds no keys or
// values in memory: its one read, Scan, merges the snapshot with the log
// from disk. Its callers write one batch per block and read only when they
// open (statedb.New and ledger.NewChain), so a read that costs a pass over
// the files buys a store that costs no memory.
//
// A store's first contents can be installed as its snapshot (Install): a
// peer's genesis lands there, written once, in key order, and no checkpoint
// ever rewrites it from the log.
//
// Checkpoints bound the log. Once it outgrows both the snapshot and
// checkpointFloor, the store merges the two into snapshot.tmp, fsyncs it,
// renames it over snapshot, fsyncs the directory and replaces the log with
// an empty one. A crash between any two steps reopens to every acknowledged
// batch:
//
//   - before the rename, the old snapshot and the whole log are in place, and
//     Open deletes the orphaned snapshot.tmp;
//   - after the rename, the old log replays over a snapshot that already
//     holds it, and replaying a sequence of puts and deletes a second time
//     changes nothing;
//   - after the log's replacement, the snapshot holds everything.
//
// A checkpoint and a scan read the same merge: the log folded into an index
// of each key's last op — a delete, or where its value lies in the log —
// whose keys are sorted and streamed against the sorted snapshot one record
// at a time. Their memory is the log's distinct keys plus one record,
// however many bytes the store or the log holds.
//
// A snapshot is renamed into place only whole and fsynced, so a snapshot
// that does not end on a whole record is refused, not read as a prefix. A
// torn or zero-filled log tail is the crash the log exists to survive: Open
// cuts it off, and the next append lands after the intact records.
package kvstore

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	walName         = "wal.log"
	snapshotName    = "snapshot"
	snapshotTmpName = "snapshot.tmp"
	// checkpointFloor is the log size below which no checkpoint is taken,
	// however small the snapshot: replaying that much at open is cheap.
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
	mu          sync.Mutex
	dir         string
	log         *wal
	snapSize    int64 // bytes in the snapshot the log folds over
	closed      bool
	checkpoints atomic.Uint64
}

var errClosed = errors.New("kvstore: store closed")

// errPastPrefix stops a merge's pass over the snapshot at its first key
// beyond the prefix scanned.
var errPastPrefix = errors.New("kvstore: past the prefix")

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
	size, err := replayWhole(db.path(snapshotName))
	if err != nil {
		return nil, err
	}
	db.snapSize = size
	intact, _, err := replay(db.path(walName))
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

// Install writes the contents of an empty store as its snapshot: the puts
// that each passes to put, in strictly ascending key order. It takes a
// checkpoint's crash steps — snapshot.tmp written and fsynced, renamed over
// the snapshot, the rename fsynced — so a crash leaves the store empty or
// holding all of them. put copies its arguments.
func (db *DB) Install(each func(put func(key, value []byte) error) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.snapSize != 0 || db.log.size != 0 {
		return fmt.Errorf("kvstore: install into %s, which is not empty", db.dir)
	}
	size, err := writeSnapshot(db.path(snapshotTmpName), each)
	if err == nil {
		err = db.publish(size)
	}
	if err != nil {
		return fmt.Errorf("kvstore: install: %w", err)
	}
	return nil
}

// Scan calls fn with every live key beginning with prefix and its value, in
// ascending key order, and stops at fn's first error. Each call merges the
// snapshot with the log from disk; fn sees the store as of the call, is never
// called with the store locked, and may write to it. key and value are valid
// only until fn returns.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return errClosed
	}
	// The files opened here are the instant fn sees: a checkpoint renames a
	// new snapshot over the old one and unlinks the log rather than
	// truncating it, so neither changes under these descriptors, and the
	// log's appends after logEnd are not read.
	snap, log, err := db.openFiles()
	logEnd := db.log.size
	db.mu.Unlock()
	if err != nil {
		return err
	}
	defer closeFiles(snap, log)
	return merge(snap, log, logEnd, prefix, fn)
}

// Checkpoints returns how many checkpoints the store has taken since it was
// opened.
func (db *DB) Checkpoints() uint64 { return db.checkpoints.Load() }

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

// openFiles opens the snapshot (nil when there is none) and the log for
// reading; the caller holds mu.
func (db *DB) openFiles() (snap, log *os.File, err error) {
	if snap, err = os.Open(db.path(snapshotName)); os.IsNotExist(err) {
		snap, err = nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if log, err = os.Open(db.log.path); err != nil {
		closeFiles(snap, nil)
		return nil, nil, err
	}
	return snap, log, nil
}

func closeFiles(files ...*os.File) {
	for _, f := range files {
		if f != nil {
			_ = f.Close() // opened for reading only
		}
	}
}

// checkpoint merges the log into a new snapshot and empties it.
func (db *DB) checkpoint() error {
	for _, step := range db.checkpointSteps() {
		if err := step(); err != nil {
			return fmt.Errorf("kvstore: checkpoint: %w", err)
		}
	}
	db.checkpoints.Add(1)
	return nil
}

// checkpointSteps returns a checkpoint's steps in the order they reach the
// disk. A crash after any prefix of them reopens to the same contents (see
// the package comment); the tests run each prefix and reopen.
func (db *DB) checkpointSteps() []func() error {
	var size int64
	return []func() error{
		func() error { // snapshot.tmp, written whole and fsynced
			snap, log, err := db.openFiles()
			if err != nil {
				return err
			}
			defer closeFiles(snap, log)
			size, err = writeSnapshot(db.path(snapshotTmpName), func(put func(key, value []byte) error) error {
				return merge(snap, log, db.log.size, nil, put)
			})
			return err
		},
		func() error { return db.publish(size) }, // renamed over the snapshot, the rename fsynced
		db.log.rotate,
	}
}

// publish renames snapshot.tmp, size bytes, over the snapshot and fsyncs the
// directory.
func (db *DB) publish(size int64) error {
	if err := os.Rename(db.path(snapshotTmpName), db.path(snapshotName)); err != nil {
		return err
	}
	db.snapSize = size
	return SyncDir(db.dir)
}

// logOp is one op of the log: its key's place in a logIndex's key arena, and
// its value's place in the log (n < 0: a delete).
type logOp struct {
	keyAt  int
	at     int64
	keyLen int32
	n      int32
}

// logIndex is the log folded into each key's last op, in key order. The keys
// are copied into one arena, and both arrays are sized by a first pass over
// the log, so the index allocates what it holds and nothing per key.
type logIndex struct {
	keys []byte
	ops  []logOp
}

func (x *logIndex) key(op logOp) []byte { return x.keys[op.keyAt : op.keyAt+int(op.keyLen)] }

// indexLog folds the log's first end bytes into each key's last op, for the
// keys beginning with prefix.
func indexLog(log *os.File, end int64, prefix []byte) (*logIndex, error) {
	x := &logIndex{}
	ops, keyBytes := 0, 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			x.keys, x.ops = make([]byte, 0, keyBytes), make([]logOp, 0, ops)
		}
		err := newRecordReader(io.NewSectionReader(log, 0, end)).all(func(del bool, key, value []byte, valAt int64) error {
			switch {
			case !bytes.HasPrefix(key, prefix):
			case pass == 0:
				ops, keyBytes = ops+1, keyBytes+len(key)
			default:
				op := logOp{keyAt: len(x.keys), at: valAt, keyLen: int32(len(key)), n: int32(len(value))}
				if del {
					op.n = -1
				}
				x.keys = append(x.keys, key...)
				x.ops = append(x.ops, op)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("kvstore: %s: %w", log.Name(), err)
		}
	}
	// A key's ops sort in log order, which is the order of their values'
	// offsets; the last of them is the one that counts.
	slices.SortFunc(x.ops, func(a, b logOp) int {
		if c := bytes.Compare(x.key(a), x.key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	last := x.ops[:0]
	for i, op := range x.ops {
		if i+1 == len(x.ops) || !bytes.Equal(x.key(op), x.key(x.ops[i+1])) {
			last = append(last, op)
		}
	}
	x.ops = last
	return x, nil
}

// merge calls emit with every live key beginning with prefix, and its value,
// in ascending key order: the snapshot's puts, each overridden by the log's
// last op on its key, and the log's other puts, as of the log's first logEnd
// bytes. snap may be nil (no snapshot). key and value are valid only until
// emit returns.
func merge(snap *os.File, log *os.File, logEnd int64, prefix []byte, emit func(key, value []byte) error) error {
	x, err := indexLog(log, logEnd, prefix)
	if err != nil {
		return err
	}
	var val []byte
	next := 0 // x.ops[next] is the first log op not yet emitted
	// fromLog emits the next log op's key with its value read back from the
	// log.
	fromLog := func() error {
		op := x.ops[next]
		key := x.key(op)
		next++
		if op.n < 0 {
			return nil
		}
		if cap(val) < int(op.n) {
			val = make([]byte, op.n)
		}
		val = val[:op.n]
		if _, err := log.ReadAt(val, op.at); err != nil {
			return fmt.Errorf("kvstore: read %q back from the log: %w", key, err)
		}
		return emit(key, val)
	}
	if snap != nil {
		// The snapshot is in ascending key order: writeSnapshot refuses to
		// write it otherwise.
		err := newRecordReader(snap).all(func(_ bool, k, v []byte, _ int64) error {
			if !bytes.HasPrefix(k, prefix) {
				if bytes.Compare(k, prefix) > 0 {
					return errPastPrefix
				}
				return nil
			}
			for next < len(x.ops) && bytes.Compare(x.key(x.ops[next]), k) < 0 {
				if err := fromLog(); err != nil {
					return err
				}
			}
			if next < len(x.ops) && bytes.Equal(x.key(x.ops[next]), k) {
				return fromLog()
			}
			return emit(k, v)
		})
		if err != nil && err != errPastPrefix {
			return err
		}
	}
	for next < len(x.ops) {
		if err := fromLog(); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot writes the puts each passes to put, in strictly ascending key
// order, to path as records each holding about snapshotRecordBytes of keys
// and values, fsyncs the file and returns its size.
func writeSnapshot(path string, each func(put func(key, value []byte) error) error) (size int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var (
		rec        record
		prev       []byte
		puts, held int
	)
	rec.buf = make([]byte, 0, snapshotRecordBytes+snapshotRecordBytes/8)
	rec.reset()
	flush := func() error {
		if rec.n == 0 {
			return nil
		}
		b := rec.bytes()
		if _, err := f.Write(b); err != nil {
			return err
		}
		size += int64(len(b))
		rec.reset()
		held = 0
		return nil
	}
	err = each(func(key, value []byte) error {
		if puts++; puts > 1 && bytes.Compare(key, prev) <= 0 {
			return fmt.Errorf("kvstore: snapshot key %q after %q", key, prev)
		}
		prev = append(prev[:0], key...)
		rec.add(false, key, value)
		if held += len(key) + len(value); held >= snapshotRecordBytes {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return 0, err
	}
	return size, f.Sync()
}

// replayWhole is replay for a file written only in whole records — the
// snapshot, which is renamed into place complete, or the log once Open has
// cut it back — where anything else past the last record is corruption, not
// a crash. It returns the file's size.
func replayWhole(path string) (int64, error) {
	intact, size, err := replay(path)
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
