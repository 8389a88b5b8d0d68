package kvstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func openDir(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func put(k, v string) BatchOp { return BatchOp{Key: []byte(k), Value: []byte(v)} }
func del(k string) BatchOp    { return BatchOp{Key: []byte(k), Delete: true} }

// model is the reference a store is held to: the fold of the acknowledged
// batches.
type model map[string]string

// apply writes ops to db as one batch and, once acknowledged, to m.
func (m model) apply(t *testing.T, db *DB, ops ...BatchOp) {
	t.Helper()
	if err := db.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Delete {
			delete(m, string(op.Key))
		} else {
			m[string(op.Key)] = string(op.Value)
		}
	}
}

func (m model) clone() model {
	out := make(model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// scan returns the keys under prefix in the order Scan yields them, and the
// contents.
func scan(t *testing.T, db *DB, prefix string) ([]string, model) {
	t.Helper()
	var keys []string
	got := model{}
	err := db.Scan([]byte(prefix), func(k, v []byte) error {
		keys = append(keys, string(k))
		got[string(k)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, got
}

// checkAgainstModel fails unless db holds exactly m, in ascending key order.
func checkAgainstModel(t *testing.T, what string, db *DB, m model) {
	t.Helper()
	keys, got := scan(t, db, "")
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("%s: scan order %q is not ascending", what, keys)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%s: store holds %v, want %v", what, got, m)
	}
}

func checkpoint(t *testing.T, db *DB) {
	t.Helper()
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// readRecords reads the record file at path, which must hold whole records
// only, and returns a copy of each record's ops.
func readRecords(t *testing.T, path string) [][]BatchOp {
	t.Helper()
	if _, err := replayWhole(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]BatchOp
	rr := newRecordReader(f)
	for {
		var ops []BatchOp
		err := rr.next(func(del bool, key, value []byte, _ int64) error {
			ops = append(ops, BatchOp{Key: bytes.Clone(key), Value: bytes.Clone(value), Delete: del})
			return nil
		})
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ops)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestPutGetDelete(t *testing.T) {
	for _, mode := range []string{"disk", "checkpointed"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			db := openDir(t, dir)
			m := model{}
			steps := [][]BatchOp{{put("a", "1")}, {put("a", "2")}, {del("a"), put("b", "1")}, {del("never")}}
			for i, ops := range steps {
				m.apply(t, db, ops...)
				if mode == "checkpointed" {
					checkpoint(t, db)
				}
				checkAgainstModel(t, fmt.Sprintf("after batch %d", i), db, m)
			}
			db.Close()
			checkAgainstModel(t, "reopened", openDir(t, dir), m)
		})
	}
}

func TestIterationSortedAndBounded(t *testing.T) {
	db := openDir(t, t.TempDir())
	m := model{}
	for i, k := range []string{"d", "a", "c/2", "b", "c/1", "e"} {
		m.apply(t, db, put(k, "v"+k))
		if i == 2 { // half the keys in the snapshot, half in the log
			checkpoint(t, db)
		}
	}
	if keys, _ := scan(t, db, ""); fmt.Sprint(keys) != "[a b c/1 c/2 d e]" {
		t.Fatalf("full scan = %v", keys)
	}
	if keys, got := scan(t, db, "c/"); fmt.Sprint(keys) != "[c/1 c/2]" || got["c/2"] != "vc/2" {
		t.Fatalf("bounded scan = %v %v", keys, got)
	}
}

func TestPrefixIterator(t *testing.T) {
	db := openDir(t, t.TempDir())
	m := model{}
	for _, k := range []string{"acct/1", "acct/2", "acct/3", "balance/1", "aard", "acct"} {
		m.apply(t, db, put(k, "x"))
	}
	if keys, _ := scan(t, db, "acct/"); fmt.Sprint(keys) != "[acct/1 acct/2 acct/3]" {
		t.Fatalf("prefix scan = %v", keys)
	}
	if keys, _ := scan(t, db, "zzz"); len(keys) != 0 {
		t.Fatalf("scan of an absent prefix = %v", keys)
	}
}

// TestFlushAndReopen checkpoints — the store's one flush, folding the log
// into the snapshot — then writes past it and reopens: the snapshot and the
// log after it make one store, a delete in the log hiding a key the
// snapshot holds.
func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	for i := 0; i < 100; i++ {
		m.apply(t, db, put(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)))
	}
	checkpoint(t, db)
	if size := fileSize(t, filepath.Join(dir, walName)); size != 0 {
		t.Fatalf("log holds %d bytes after a checkpoint", size)
	}
	m.apply(t, db, put("wal-only", "yes"))
	m.apply(t, db, del("k005"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, "reopened", openDir(t, dir), m)
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Simulate a killed process: write, never Close, reopen from the same
	// directory. Every completed batch is already in the file.
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	for i := 0; i < 50; i++ {
		m.apply(t, db, put(fmt.Sprintf("c%02d", i), "v"))
	}
	checkAgainstModel(t, "reopened without close", openDir(t, dir), m)
}

// TestWALTruncationTorture writes a seeded sequence of batches of puts and
// deletes over a snapshot, then cuts the log at every record boundary, one
// byte either side of each, and a seeded sample of lengths inside records.
// A store reopened on the snapshot and the cut log must hold exactly the
// fold of the batches that fit whole below the cut — a torn batch
// contributes nothing, not a prefix of its operations.
//
// Crashes inside a checkpoint are TestCheckpointCrashPoints'; a zero-filled
// tail is TestZeroFilledLogTail's.
func TestWALTruncationTorture(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	walPath := filepath.Join(dir, walName)
	rng := rand.New(rand.NewSource(29))
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(24)) }
	m := model{}
	batch := func(b int) []BatchOp {
		var ops []BatchOp
		for n := 1 + rng.Intn(8); n > 0; n-- {
			if rng.Intn(4) == 0 {
				ops = append(ops, del(key()))
			} else {
				ops = append(ops, put(key(), strings.Repeat(string(rune('a'+b%26)), rng.Intn(40))))
			}
		}
		if b%10 == 3 || b%10 == 7 { // single-op batches too
			ops = ops[:1]
		}
		return ops
	}
	for b := 0; b < 10; b++ {
		m.apply(t, db, batch(b)...)
	}
	checkpoint(t, db)
	folds := []model{m.clone()} // folds[k]: contents after k whole batches of the log
	bounds := []int64{0}        // bounds[k]: log length after k batches
	for b := 0; b < 60; b++ {
		m.apply(t, db, batch(b)...)
		folds = append(folds, m.clone())
		bounds = append(bounds, fileSize(t, walPath))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != bounds[len(bounds)-1] {
		t.Fatalf("log is %d bytes after Close, %d after the last batch", len(raw), bounds[len(bounds)-1])
	}

	cuts := map[int64]bool{int64(len(raw)) - 3: true} // the old torn-tail case
	for _, b := range bounds {
		for _, l := range []int64{b - 1, b, b + 1} {
			if l >= 0 && l <= int64(len(raw)) {
				cuts[l] = true
			}
		}
	}
	for i := 0; i < 200; i++ {
		cuts[rng.Int63n(int64(len(raw)))] = true
	}
	for l := range cuts {
		whole := sort.Search(len(bounds), func(k int) bool { return bounds[k] > l }) - 1
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, snapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, walName), raw[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut at %d: %v", l, err)
		}
		what := fmt.Sprintf("cut at %d (%d whole batches, next boundary %d)", l, whole, bounds[min(whole+1, len(bounds)-1)])
		checkAgainstModel(t, what, re, folds[whole])
		// Life goes on after the crash: a batch written behind the cut must
		// survive the next reopen, not hide behind a torn tail.
		after := folds[whole].clone()
		after.apply(t, re, put("after", "crash"))
		re.Close()
		if re, err = Open(Options{Dir: cutDir}); err != nil {
			t.Fatalf("cut at %d, second reopen: %v", l, err)
		}
		checkAgainstModel(t, what+", second reopen", re, after)
		re.Close()
	}
}

// TestZeroFilledLogTail reopens a log whose three records are followed by
// 4096 zero bytes, the tail a filesystem can leave after a crash extended
// the file but not its contents. An all-zero header reads as an empty
// payload whose checksum (0) holds; no append writes one, so it is the end
// of the log, cut off at open like any torn tail.
func TestZeroFilledLogTail(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	for i := 0; i < 3; i++ {
		m.apply(t, db, put(fmt.Sprintf("k%d", i), "v"), del("gone"))
	}
	db.Close()
	walPath := filepath.Join(dir, walName)
	intact := fileSize(t, walPath)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openDir(t, dir)
	checkAgainstModel(t, "zero-filled tail", re, m)
	if size := fileSize(t, walPath); size != intact {
		t.Fatalf("log is %d bytes after open, its records span %d", size, intact)
	}
	m.apply(t, re, put("after", "zeros"))
	re.Close()
	checkAgainstModel(t, "reopened after an append", openDir(t, dir), m)
}

// TestCheckpointCrashPoints stops a checkpoint after each of its steps in
// turn — snapshot.tmp written but not renamed; renamed but the log not
// truncated; truncated — and abandons the store there, as a crash would.
// The store reopened on the directory must hold exactly the acknowledged
// batches, take the next batch after them, and hold that too at the next
// open, and a full checkpoint after it must change nothing.
func TestCheckpointCrashPoints(t *testing.T) {
	for crashAfter := 1; crashAfter <= 3; crashAfter++ {
		t.Run(fmt.Sprintf("after-step-%d", crashAfter), func(t *testing.T) {
			dir := t.TempDir()
			db := openDir(t, dir)
			m := model{}
			for i := 0; i < 40; i++ {
				m.apply(t, db, put(fmt.Sprintf("k%02d", i%25), fmt.Sprintf("old%d", i)))
			}
			checkpoint(t, db) // an old snapshot for the crashed one to replace
			for i := 0; i < 40; i++ {
				if i%3 == 0 {
					m.apply(t, db, del(fmt.Sprintf("k%02d", i%30)), put("n", fmt.Sprint(i)))
				} else {
					m.apply(t, db, put(fmt.Sprintf("k%02d", i%30), fmt.Sprintf("new%d", i)))
				}
			}
			steps := db.checkpointSteps()
			if len(steps) != 3 {
				t.Fatalf("a checkpoint has %d steps; this test crashes after each of 3", len(steps))
			}
			for _, step := range steps[:crashAfter] {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			_, tmpErr := os.Stat(filepath.Join(dir, snapshotTmpName))
			logSize := fileSize(t, filepath.Join(dir, walName))
			if (crashAfter == 1) != (tmpErr == nil) || (crashAfter == 3) != (logSize == 0) {
				t.Fatalf("after step %d: snapshot.tmp present %v, log %d bytes", crashAfter, tmpErr == nil, logSize)
			}

			re := openDir(t, dir) // db is abandoned, never closed
			checkAgainstModel(t, "reopened", re, m)
			if _, err := os.Stat(filepath.Join(dir, snapshotTmpName)); !os.IsNotExist(err) {
				t.Fatalf("snapshot.tmp survives the reopen: %v", err)
			}
			m.apply(t, re, put("after", "crash"), del("k01"))
			re.Close()
			re = openDir(t, dir)
			checkAgainstModel(t, "reopened after an append", re, m)
			checkpoint(t, re)
			re.Close()
			checkAgainstModel(t, "checkpointed again and reopened", openDir(t, dir), m)
		})
	}
}

// TestCompactionPreservesContent drives random puts and deletes through
// many checkpoints — the store's one compaction — and holds the store to
// the model throughout; the last snapshot holds only live keys, no
// tombstones.
func TestCompactionPreservesContent(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		if rng.Intn(4) == 0 {
			m.apply(t, db, del(k))
		} else {
			m.apply(t, db, put(k, fmt.Sprintf("val-%d", i)))
		}
		if i%150 == 149 {
			checkpoint(t, db)
		}
	}
	checkAgainstModel(t, "live", db, m)
	checkpoint(t, db)
	checkAgainstModel(t, "after the last checkpoint", db, m)
	snap := model{}
	for _, ops := range readRecords(t, filepath.Join(dir, snapshotName)) {
		for _, op := range ops {
			if op.Delete {
				t.Fatalf("snapshot holds a delete of %q", op.Key)
			}
			snap[string(op.Key)] = string(op.Value)
		}
	}
	if !reflect.DeepEqual(snap, m) {
		t.Fatalf("snapshot holds %d keys, the model %d", len(snap), len(m))
	}
	db.Close()
	checkAgainstModel(t, "reopened", openDir(t, dir), m)
}

// TestModelEquivalenceProperty: any sequence of batches, checkpoints and
// reopens leaves the store equal to the fold of its batches.
func TestModelEquivalenceProperty(t *testing.T) {
	type op struct {
		Del  bool
		K    uint8
		V    uint16
		Step uint8 // %8 == 0: checkpoint after the op; %16 == 1: reopen
	}
	prop := func(ops []op) bool {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer func() { db.Close() }()
		m := model{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.K%32)
			if o.Del {
				m.apply(t, db, del(k))
			} else {
				m.apply(t, db, put(k, fmt.Sprintf("v%d", o.V)))
			}
			switch {
			case o.Step%8 == 0:
				if db.checkpoint() != nil {
					return false
				}
			case o.Step%16 == 1:
				db.Close()
				if db, err = Open(Options{Dir: dir}); err != nil {
					return false
				}
			}
		}
		_, got := scan(t, db, "")
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	db := openDir(t, t.TempDir())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch([]BatchOp{put("x", "y")}); err == nil {
		t.Error("ApplyBatch on closed store should fail")
	}
	if err := db.Scan(nil, func(_, _ []byte) error { return nil }); err == nil {
		t.Error("Scan on closed store should fail")
	}
	if err := db.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

// TestConcurrentBatchesAndScans applies batches from several goroutines
// while others scan: every scan sees each writer's keys as a prefix of its
// batches, and the store ends holding all of them.
func TestConcurrentBatchesAndScans(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	const writers, batches = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if err := db.ApplyBatch([]BatchOp{put(fmt.Sprintf("w%d/%03d", w, i), "v")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 0
				err := db.Scan([]byte("w0/"), func(k, _ []byte) error {
					if want := fmt.Sprintf("w0/%03d", n); string(k) != want {
						return fmt.Errorf("scan yields %q where %q is due", k, want)
					}
					n++
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m := model{}
	for w := 0; w < writers; w++ {
		for i := 0; i < batches; i++ {
			m[fmt.Sprintf("w%d/%03d", w, i)] = "v"
		}
	}
	checkAgainstModel(t, "after the writers", db, m)
}

// TestLargeValuesAcrossFlush writes values until the log outgrows the
// checkpoint floor: the batch that crosses it triggers a checkpoint, which
// leaves the log empty and every value whole in the snapshot.
func TestLargeValuesAcrossFlush(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	big := strings.Repeat("x", 1<<20)
	n := 0
	for ; fileSize(t, filepath.Join(dir, walName)) > 0 || n == 0; n++ {
		if n > checkpointFloor>>20+1 {
			t.Fatalf("no checkpoint after %d MiB of log", n)
		}
		m.apply(t, db, put(fmt.Sprintf("big%d", n), big+fmt.Sprint(n)), put("small", fmt.Sprint(n)))
	}
	if size := fileSize(t, filepath.Join(dir, snapshotName)); size < int64(n)<<20 {
		t.Fatalf("snapshot holds %d bytes after %d MiB values", size, n)
	}
	checkAgainstModel(t, "after the checkpoint", db, m)
	m.apply(t, db, put("big0", "shrunk"))
	db.Close()
	checkAgainstModel(t, "reopened", openDir(t, dir), m)
}

func TestEmptyKeyAndValue(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	m.apply(t, db, put("", ""))
	checkAgainstModel(t, "empty key", db, m)
	checkpoint(t, db)
	db.Close()
	checkAgainstModel(t, "empty key, checkpointed and reopened", openDir(t, dir), m)
}

func TestApplyBatch(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	m.apply(t, db, put("doomed", "x"))
	m.apply(t, db,
		put("a", "1"),
		put("b", "2"),
		put("a", "1b"), // later op wins
		del("doomed"),
	)
	if fmt.Sprint(m) != "map[a:1b b:2]" {
		t.Fatalf("model = %v", m)
	}
	checkAgainstModel(t, "live", db, m)
	// Batch contents must survive a log replay.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, "reopened", openDir(t, dir), m)
}

// writePuts writes puts to path as a snapshot.
func writePuts(path string, puts []BatchOp) (int64, error) {
	return writeSnapshot(path, func(put func(key, value []byte) error) error {
		for _, p := range puts {
			if err := put(p.Key, p.Value); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestSnapshotRoundTrip writes a snapshot large enough to take several
// records and reads it back: the same puts, in the same order. A snapshot
// is written in ascending key order only.
func TestSnapshotRoundTrip(t *testing.T) {
	puts := []BatchOp{put("empty", "")}
	for i := 0; i < 200; i++ {
		puts = append(puts, BatchOp{Key: []byte(fmt.Sprintf("key%04d", i)), Value: bytes.Repeat([]byte{byte(i)}, 8<<10)})
	}
	path := filepath.Join(t.TempDir(), snapshotName)
	if _, err := writePuts(path, []BatchOp{put("b", ""), put("a", "")}); err == nil {
		t.Fatal("a snapshot written out of key order was accepted")
	}
	size, err := writePuts(path, puts)
	if err != nil {
		t.Fatal(err)
	}
	if size != fileSize(t, path) {
		t.Fatalf("writeSnapshot reports %d bytes, the file holds %d", size, fileSize(t, path))
	}
	var got []BatchOp
	records := readRecords(t, path)
	for _, ops := range records {
		got = append(got, ops...)
	}
	if len(records) < 2 || !reflect.DeepEqual(got, puts) {
		t.Fatalf("%d records holding %d puts; want several records holding the %d puts written, in order", len(records), len(got), len(puts))
	}
	if _, err := writePuts(path, nil); err != nil || fileSize(t, path) != 0 {
		t.Fatalf("empty snapshot: %v, %d bytes", err, fileSize(t, path))
	}
}

// TestSnapshotCorruptionDetected: a snapshot is renamed into place whole, so
// one that ends short of a whole record, on zeros, or on a record whose
// checksum fails is corrupt, and Open refuses it rather than read a prefix.
func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	for i := 0; i < 50; i++ {
		m.apply(t, db, put(fmt.Sprintf("k%02d", i), "v"))
	}
	checkpoint(t, db)
	db.Close()
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0xff
	for name, bad := range map[string][]byte{
		"short":      raw[:len(raw)-3],
		"zero tail":  append(bytes.Clone(raw), make([]byte, 4096)...),
		"bad record": flipped,
	} {
		badDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(badDir, snapshotName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(Options{Dir: badDir}); err == nil {
			db.Close()
			t.Errorf("%s snapshot opened without error", name)
		}
	}
	checkAgainstModel(t, "the intact directory", openDir(t, dir), m)
}

// TestOpenRefusesTheLSMLayout: a directory written by the LSM this store
// replaced holds most of its contents in SSTables named by a MANIFEST. Read
// as a log and a snapshot it would look nearly empty, so Open refuses it.
func TestOpenRefusesTheLSMLayout(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"MANIFEST": "1\n", "000001.sst": "table", walName: ""} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Options{Dir: dir})
	if err == nil {
		db.Close()
		t.Fatal("a directory with a MANIFEST opened")
	}
	if !strings.Contains(err.Error(), "MANIFEST") {
		t.Fatalf("refusal does not name the MANIFEST: %v", err)
	}
	if _, err := Open(Options{}); err == nil {
		t.Fatal("a store with no directory opened")
	}
}

// BenchmarkApplyBatch appends 100-op batches, one block's state writes.
func BenchmarkApplyBatch(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ops := make([]BatchOp, 100)
	val := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = BatchOp{Key: []byte(fmt.Sprintf("acct:%08d", (i*100+j)%(1<<20))), Value: val}
		}
		if err := db.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
}
