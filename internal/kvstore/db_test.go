package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPutGetDelete(t *testing.T) {
	for _, mode := range []string{"disk", "memory"} {
		t.Run(mode, func(t *testing.T) {
			var db *DB
			if mode == "disk" {
				db = openTemp(t, Options{})
			} else {
				var err error
				db, err = Open(Options{})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := db.Get([]byte("a"))
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("Get=%q,%v,%v", v, ok, err)
			}
			if err := db.Put([]byte("a"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = db.Get([]byte("a"))
			if string(v) != "2" {
				t.Fatalf("overwrite failed: %q", v)
			}
			if err := db.Delete([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get([]byte("a")); ok {
				t.Fatal("deleted key still present")
			}
			if _, ok, _ := db.Get([]byte("never")); ok {
				t.Fatal("absent key reported present")
			}
		})
	}
}

func TestIterationSortedAndBounded(t *testing.T) {
	db := openTemp(t, Options{})
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		if err := db.Put([]byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for it := db.NewIterator(nil, nil); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("full scan = %v want %v", got, want)
	}
	got = nil
	for it := db.NewIterator([]byte("b"), []byte("d")); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"b", "c"}) {
		t.Fatalf("bounded scan = %v", got)
	}
}

func TestPrefixIterator(t *testing.T) {
	db := openTemp(t, Options{})
	for _, k := range []string{"acct/1", "acct/2", "acct/3", "balance/1", "aard"} {
		if err := db.Put([]byte(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for it := db.NewPrefixIterator([]byte("acct/")); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"acct/1", "acct/2", "acct/3"}) {
		t.Fatalf("prefix scan = %v", got)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xff}, []byte{0x02}},
		{[]byte{0xff, 0xff}, nil},
		{nil, nil},
	}
	for _, c := range cases {
		if got := PrefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("PrefixSuccessor(%x)=%x want %x", c.in, got, c.want)
		}
	}
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush writes live only in the WAL.
	if err := db.Put([]byte("wal-only"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("k005")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok, _ := db2.Get([]byte("k042")); !ok || string(v) != "v42" {
		t.Fatalf("flushed key lost: %q %v", v, ok)
	}
	if v, ok, _ := db2.Get([]byte("wal-only")); !ok || string(v) != "yes" {
		t.Fatalf("wal key lost: %q %v", v, ok)
	}
	if _, ok, _ := db2.Get([]byte("k005")); ok {
		t.Fatal("wal tombstone lost")
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Simulate a killed process: write, never Close, reopen from the same
	// directory. Every completed Put is already in the file.
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("c%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Len(); n != 50 {
		t.Fatalf("recovered %d keys, want 50", n)
	}
}

// TestWALTruncationTorture cuts the log of a seeded sequence of multi-op
// batches (and single Puts and Deletes) at every record boundary, one byte
// either side of each, and a seeded sample of lengths inside records. A
// store reopened on the cut log must hold exactly the fold of the batches
// that fit whole below the cut — a torn batch contributes nothing, not a
// prefix of its operations.
//
// Not covered: crashes inside a memtable flush or a compaction (SSTable and
// manifest write boundaries); those need the fault-injecting file layer of
// ROADMAP item 5.
func TestWALTruncationTorture(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	rng := rand.New(rand.NewSource(29))
	key := func() []byte { return []byte(fmt.Sprintf("k%02d", rng.Intn(24))) }
	model := map[string]string{}
	folds := []map[string]string{{}} // folds[k]: contents after k whole batches
	bounds := []int64{0}             // bounds[k]: log length after k batches
	for b := 0; b < 60; b++ {
		var ops []BatchOp
		for n := 1 + rng.Intn(8); n > 0; n-- {
			if rng.Intn(4) == 0 {
				ops = append(ops, BatchOp{Key: key(), Delete: true})
			} else {
				ops = append(ops, BatchOp{Key: key(), Value: bytes.Repeat([]byte{byte('a' + b%26)}, rng.Intn(40))})
			}
		}
		switch {
		case b%10 == 3:
			ops = ops[:1]
			ops[0].Delete, ops[0].Value = false, []byte("put")
			err = db.Put(ops[0].Key, ops[0].Value)
		case b%10 == 7:
			ops = ops[:1]
			ops[0].Delete = true
			err = db.Delete(ops[0].Key)
		default:
			err = db.ApplyBatch(ops)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Delete {
				delete(model, string(op.Key))
			} else {
				model[string(op.Key)] = string(op.Value)
			}
		}
		fold := make(map[string]string, len(model))
		for k, v := range model {
			fold[k] = v
		}
		folds = append(folds, fold)
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, info.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
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
		if err := os.WriteFile(filepath.Join(cutDir, walName), raw[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut at %d: %v", l, err)
		}
		dump := func(db *DB) map[string]string {
			got := map[string]string{}
			for it := db.NewIterator(nil, nil); it.Valid(); it.Next() {
				got[string(it.Key())] = string(it.Value())
			}
			return got
		}
		if got := dump(re); !reflect.DeepEqual(got, folds[whole]) {
			t.Fatalf("cut at %d (%d whole batches, next boundary %d): store holds %v, want %v",
				l, whole, bounds[min(whole+1, len(bounds)-1)], got, folds[whole])
		}
		// Life goes on after the crash: a batch written behind the cut must
		// survive the next reopen, not hide behind a torn tail.
		if err := re.Put([]byte("after"), []byte("crash")); err != nil {
			t.Fatal(err)
		}
		re.Close()
		if re, err = Open(Options{Dir: cutDir}); err != nil {
			t.Fatalf("cut at %d, second reopen: %v", l, err)
		}
		got := dump(re)
		re.Close()
		if got["after"] != "crash" || len(got) != len(folds[whole])+1 {
			t.Fatalf("cut at %d: second reopen holds %v, want %v plus the batch written after the crash", l, got, folds[whole])
		}
	}
}

func TestCompactionPreservesContent(t *testing.T) {
	// Tiny memtable forces many flushes and compactions.
	db := openTemp(t, Options{MemtableBytes: 512, CompactAfter: 2})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		switch rng.Intn(4) {
		case 0:
			delete(model, k)
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		default:
			v := fmt.Sprintf("val-%d", i)
			model[k] = v
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAgainstModel(t, db, model)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, db, model)
}

func checkAgainstModel(t *testing.T, db *DB, model map[string]string) {
	t.Helper()
	for k, want := range model {
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%q)=%q,%v,%v want %q", k, v, ok, err, want)
		}
	}
	var modelKeys []string
	for k := range model {
		modelKeys = append(modelKeys, k)
	}
	sort.Strings(modelKeys)
	var got []string
	for it := db.NewIterator(nil, nil); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
		if want := model[string(it.Key())]; want != string(it.Value()) {
			t.Fatalf("iterator value mismatch at %q", it.Key())
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(modelKeys) {
		t.Fatalf("iterator keys %d != model keys %d", len(got), len(modelKeys))
	}
}

func TestModelEquivalenceProperty(t *testing.T) {
	type op struct {
		Del bool
		K   uint8
		V   uint16
	}
	prop := func(ops []op) bool {
		db, err := Open(Options{}) // in-memory
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.K%32)
			if o.Del {
				delete(model, k)
				if err := db.Delete([]byte(k)); err != nil {
					return false
				}
			} else {
				v := fmt.Sprintf("v%d", o.V)
				model[k] = v
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		for k, want := range model {
			v, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(v) != want {
				return false
			}
		}
		n := 0
		for it := db.NewIterator(nil, nil); it.Valid(); it.Next() {
			n++
		}
		return n == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("x"), []byte("y")); err == nil {
		t.Error("Put on closed store should fail")
	}
	if _, _, err := db.Get([]byte("x")); err == nil {
		t.Error("Get on closed store should fail")
	}
	if err := db.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestLargeValuesAcrossFlush(t *testing.T) {
	db := openTemp(t, Options{MemtableBytes: 1024})
	big := bytes.Repeat([]byte("x"), 10_000)
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("small"), []byte("s")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatal("large value corrupted across flush")
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte{})
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty key round trip: %q %v %v", v, ok, err)
	}
}

func TestSkiplistSeek(t *testing.T) {
	s := newSkiplist()
	for _, k := range []string{"b", "d", "f"} {
		s.set([]byte(k), []byte("v"), false)
	}
	cases := []struct{ target, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"}, {"g", ""},
	}
	for _, c := range cases {
		n := s.seek([]byte(c.target))
		got := ""
		if n != nil {
			got = string(n.key)
		}
		if got != c.want {
			t.Errorf("seek(%q)=%q want %q", c.target, got, c.want)
		}
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	s := newSkiplist()
	for i := 0; i < 200; i++ {
		s.set([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%d", i)), i%7 == 0)
	}
	path := filepath.Join(t.TempDir(), "test.sst")
	if err := writeSSTable(path, s.iterator()); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		v, tomb, ok := tab.get(k)
		if !ok {
			t.Fatalf("missing %q", k)
		}
		if tomb != (i%7 == 0) {
			t.Fatalf("tombstone flag wrong for %q", k)
		}
		if !tomb && string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("value wrong for %q: %q", k, v)
		}
	}
	if _, _, ok := tab.get([]byte("absent")); ok {
		t.Fatal("absent key found")
	}
	// Seeked iteration.
	it := tab.iteratorFrom([]byte("key0150"))
	k, _, _ := it.entry()
	if string(k) != "key0150" {
		t.Fatalf("iteratorFrom landed on %q", k)
	}
	n := 0
	for ; it.valid(); it.next() {
		n++
	}
	if n != 50 {
		t.Fatalf("iterated %d entries from key0150, want 50", n)
	}
}

func TestSSTableCorruptionDetected(t *testing.T) {
	s := newSkiplist()
	for i := 0; i < 50; i++ {
		s.set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), false)
	}
	path := filepath.Join(t.TempDir(), "c.sst")
	if err := writeSSTable(path, s.iterator()); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff // clobber the magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path); err == nil {
		t.Fatal("corrupt table opened without error")
	}
}

func TestApplyBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("doomed"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("1b")}, // later op wins
		{Key: []byte("doomed"), Delete: true},
	}
	if err := db.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB) {
		t.Helper()
		if v, ok, _ := db.Get([]byte("a")); !ok || string(v) != "1b" {
			t.Fatalf("a = %q,%v", v, ok)
		}
		if v, ok, _ := db.Get([]byte("b")); !ok || string(v) != "2" {
			t.Fatalf("b = %q,%v", v, ok)
		}
		if _, ok, _ := db.Get([]byte("doomed")); ok {
			t.Fatal("delete op did not apply")
		}
	}
	check(db)
	// Batch contents must survive a WAL replay.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check(db2)
}

func BenchmarkPut(b *testing.B) {
	db, _ := Open(Options{})
	key := make([]byte, 16)
	val := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryKey(key, uint64(i))
		_ = db.Put(key, val)
	}
}

func BenchmarkGet(b *testing.B) {
	db, _ := Open(Options{})
	key := make([]byte, 16)
	for i := 0; i < 100_000; i++ {
		binaryKey(key, uint64(i))
		_ = db.Put(key, []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryKey(key, uint64(i%100_000))
		_, _, _ = db.Get(key)
	}
}

func binaryKey(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * (7 - i)))
	}
}
