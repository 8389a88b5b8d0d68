package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// failingFile is the log's file with one call failing: the write numbered
// failWrite writes only half its bytes, or the sync numbered failSync
// reports an error, and truncates fail while failTruncate is set.
type failingFile struct {
	logFile
	writes, syncs         int
	failWrite, failSync   int
	failTruncate          bool
	truncates, shortBytes int
}

var errInjected = errors.New("injected failure")

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.failWrite {
		n, _ := f.logFile.Write(p[:len(p)/2])
		f.shortBytes = n
		return n, errInjected
	}
	return f.logFile.Write(p)
}

func (f *failingFile) Sync() error {
	f.syncs++
	if f.syncs == f.failSync {
		return errInjected
	}
	return f.logFile.Sync()
}

func (f *failingFile) Truncate(size int64) error {
	f.truncates++
	if f.failTruncate {
		return errInjected
	}
	return f.logFile.Truncate(size)
}

// TestFailedAppendLosesNoAcknowledgedBatch fails one append part-way — a
// short write, or a sync that fails after a whole write — and goes on
// writing. The failed batch is not acknowledged and must not survive; every
// batch before and after it is, and must, through a scan of the live store
// and a reopen. When the torn record cannot be cut off either, the store
// refuses every later write until it is reopened, and the reopened store
// holds the batches acknowledged before the failure.
func TestFailedAppendLosesNoAcknowledgedBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		file failingFile
		sync bool
	}{
		{"short write", failingFile{failWrite: 4}, false},
		{"failed sync", failingFile{failSync: 4}, true},
		{"short write, truncate fails", failingFile{failWrite: 4, failTruncate: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Options{Dir: dir, SyncWrites: tc.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ff := tc.file
			ff.logFile = db.log.f
			db.log.f = &ff
			m := model{}
			for i := 0; i < 8; i++ {
				ops := []BatchOp{put(fmt.Sprintf("k%d", i), strings.Repeat("v", 100+i)), del(fmt.Sprintf("k%d", i-2))}
				if i == 3 {
					if err := db.ApplyBatch(ops); !errors.Is(err, errInjected) {
						t.Fatalf("batch %d: %v, want the injected failure", i, err)
					}
					continue
				}
				err := db.ApplyBatch(ops)
				if tc.file.failTruncate && i > 3 {
					if err == nil {
						t.Fatalf("batch %d acknowledged behind a torn record that could not be cut off", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				for _, op := range ops {
					if op.Delete {
						delete(m, string(op.Key))
					} else {
						m[string(op.Key)] = string(op.Value)
					}
				}
			}
			checkAgainstModel(t, "live store", db, m)
			if tc.file.failWrite != 0 && ff.shortBytes == 0 {
				t.Fatal("the injected short write wrote nothing; the test exercises no torn record")
			}
			db.Close()
			checkAgainstModel(t, "reopened", openDir(t, dir), m)
		})
	}
}

// TestMergeAgainstModel runs seeded batches of puts and deletes over an
// installed snapshot — deletes of snapshot keys, re-puts of deleted keys, and
// keys sorting before, between and after the snapshot's — with checkpoints
// and reopens at seeded points. After every step each prefix's scan equals
// a plain map of the acknowledged batches.
func TestMergeAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		m := model{}
		var installed []BatchOp
		for i := 0; i < 40; i++ {
			p := put(fmt.Sprintf("m/%03d", 10*i+5), fmt.Sprintf("snap%d", i))
			installed = append(installed, p)
			m[string(p.Key)] = string(p.Value)
		}
		if err := db.Install(func(put func(key, value []byte) error) error {
			for _, p := range installed {
				if err := put(p.Key, p.Value); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		key := func() string {
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprintf("a/%d", rng.Intn(20)) // before every snapshot key
			case 1:
				return fmt.Sprintf("z/%d", rng.Intn(20)) // after them
			case 2:
				return fmt.Sprintf("m/%03d", 10*rng.Intn(40)+5) // a snapshot key
			}
			return fmt.Sprintf("m/%03d", 10*rng.Intn(41)) // between two of them
		}
		for step := 0; step < 120; step++ {
			var ops []BatchOp
			for n := 1 + rng.Intn(6); n > 0; n-- {
				if rng.Intn(3) == 0 {
					ops = append(ops, del(key()))
				} else {
					ops = append(ops, put(key(), fmt.Sprintf("s%d-%d", seed, step)))
				}
			}
			m.apply(t, db, ops...)
			switch rng.Intn(10) {
			case 0:
				checkpoint(t, db)
			case 1:
				db.Close()
				if db, err = Open(Options{Dir: dir}); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("seed %d step %d", seed, step)
			checkAgainstModel(t, what, db, m)
			for _, prefix := range []string{"a/", "m/", "m/1", "z/", "q"} {
				want := model{}
				for k, v := range m {
					if strings.HasPrefix(k, prefix) {
						want[k] = v
					}
				}
				if _, got := scan(t, db, prefix); len(got) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: scan of %q = %v, want %v", what, prefix, got, want)
				}
			}
		}
		db.Close()
	}
}

// TestInstallIsTheFirstSnapshot: the contents installed into an empty store
// are its snapshot, and the log stays empty; an install out of key order or
// into a store that holds anything is refused, and a refused install leaves
// the store empty.
func TestInstallIsTheFirstSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	install := func(keys ...string) error {
		return db.Install(func(put func(key, value []byte) error) error {
			for _, k := range keys {
				if err := put([]byte(k), []byte("v"+k)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := install("b", "a"); err == nil {
		t.Fatal("an install out of key order was accepted")
	}
	db.Close()
	db = openDir(t, dir)
	checkAgainstModel(t, "after a refused install", db, model{})
	if err := install("a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, filepath.Join(dir, walName)) != 0 || fileSize(t, filepath.Join(dir, snapshotName)) == 0 {
		t.Fatal("the installed contents are not in the snapshot alone")
	}
	if err := install("d"); err == nil {
		t.Fatal("an install into a store holding a snapshot was accepted")
	}
	m := model{"a": "va", "b": "vb", "c": "vc"}
	m.apply(t, db, del("b"), put("0", "first"))
	db.Close()
	checkAgainstModel(t, "installed and reopened", openDir(t, dir), m)

	logged := openDir(t, t.TempDir())
	if err := logged.ApplyBatch([]BatchOp{put("x", "y")}); err != nil {
		t.Fatal(err)
	}
	if err := logged.Install(func(func(key, value []byte) error) error { return nil }); err == nil {
		t.Fatal("an install into a store holding a log record was accepted")
	}
}

// TestScanOutlivesACheckpoint: a scan sees the store as of its call, even
// when the writes its own callback makes checkpoint the store — rename a new
// snapshot over the one it reads and empty the log it reads — part-way
// through it.
func TestScanOutlivesACheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	m := model{}
	for i := 0; i < 200; i++ {
		m.apply(t, db, put(fmt.Sprintf("k%03d", i), fmt.Sprintf("old%d", i)))
	}
	checkpoint(t, db)
	for i := 0; i < 200; i += 2 {
		m.apply(t, db, put(fmt.Sprintf("k%03d", i), fmt.Sprintf("log%d", i)), del(fmt.Sprintf("k%03d", i+1)))
	}
	want := m.clone()
	got := model{}
	big := strings.Repeat("x", 1<<20)
	before := db.Checkpoints()
	err := db.Scan(nil, func(k, v []byte) error {
		if len(got) == 10 {
			for i := 0; db.Checkpoints() == before; i++ {
				m.apply(t, db, put(fmt.Sprintf("k%03d", i), big), del(fmt.Sprintf("k%03d", 199-i)))
			}
		}
		got[string(k)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the scan that outlived a checkpoint saw %d keys, want the %d its call held", len(got), len(want))
	}
	checkAgainstModel(t, "after the checkpoint", db, m)
}

// bigStore installs n keys of 64-byte values into a store in dir, then logs
// puts of logKeys of them with a different value, and returns it.
func bigStore(tb testing.TB, dir string, n, logKeys int) *DB {
	db, err := Open(Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 64)
	if err := db.Install(func(put func(key, value []byte) error) error {
		var k []byte
		for i := 0; i < n; i++ {
			k = fmt.Appendf(k[:0], "s/acct:%08d", i)
			if err := put(k, val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	logStore(tb, db, rand.New(rand.NewSource(1)), n, logKeys)
	return db
}

// logStore overwrites logKeys seeded draws of the n keys bigStore installed,
// 100 to a batch, with 64-byte values.
func logStore(tb testing.TB, db *DB, rng *rand.Rand, n, logKeys int) {
	val := bytes.Repeat([]byte("w"), 64)
	for i := 0; i < logKeys; i += 100 {
		ops := make([]BatchOp, 0, 100)
		for j := i; j < min(i+100, logKeys); j++ {
			ops = append(ops, BatchOp{Key: []byte(fmt.Sprintf("s/acct:%08d", rng.Intn(n))), Value: val})
		}
		if err := db.ApplyBatch(ops); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCheckpointAllocatesByTheLog: a checkpoint of a 100 000-key store
// (about 8 MB) with a log of 1 000 puts allocates about one snapshot record
// and the log's index, not the store: under 3 MiB. Folding the store into a
// map allocates several times the store.
func TestCheckpointAllocatesByTheLog(t *testing.T) {
	const n = 100000
	dir := t.TempDir()
	db := bigStore(t, dir, n, 1000)
	defer db.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	checkpoint(t, db)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3<<20 {
		t.Fatalf("a checkpoint of %d keys (snapshot %d B) with a %d-put log allocated %d B", n, fileSize(t, filepath.Join(dir, snapshotName)), 1000, alloc)
	}
	if got := fileSize(t, filepath.Join(dir, walName)); got != 0 {
		t.Fatalf("log holds %d bytes after the checkpoint", got)
	}
}

// BenchmarkCheckpoint times one checkpoint of a 100 000-key store under a
// 4 MiB log of overwrites: µs and bytes allocated per checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	const n = 100000
	db := bigStore(b, b.TempDir(), n, 0)
	defer db.Close()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for db.log.size < 4<<20 {
			logStore(b, db, rng, n, 1000)
		}
		b.StartTimer()
		if err := db.checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
