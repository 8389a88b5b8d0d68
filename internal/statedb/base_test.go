package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// stateModel is the state database without a base: one history per key,
// every write appended, pruning and reopening as the database did when it
// kept everything in histories. The model test holds a database seeded with
// a base to it.
type stateModel struct {
	hist    map[string][]VersionedValue
	height  uint64
	horizon uint64
}

func (m *stateModel) apply(block uint64, txs []BlockWrites) {
	for _, tw := range txs {
		for _, w := range tw.Writes {
			vv := VersionedValue{Version: seqno.Commit(block, tw.Pos), Deleted: w.Delete}
			if !w.Delete {
				vv.Value = append([]byte(nil), w.Value...)
			}
			m.hist[w.Key] = append(m.hist[w.Key], vv)
		}
	}
	m.height = block
}

// prune cuts every history to its latest version at or before horizon and
// everything after, dropping a key left with a lone tombstone.
func (m *stateModel) prune(horizon uint64) {
	m.horizon = max(m.horizon, horizon)
	for key, versions := range m.hist {
		idx := -1
		for j, vv := range versions {
			if vv.Version.Block > horizon {
				break
			}
			idx = j
		}
		if idx <= 0 {
			continue
		}
		if kept := versions[idx:]; len(kept) == 1 && kept[0].Deleted {
			delete(m.hist, key)
		} else {
			m.hist[key] = append([]VersionedValue(nil), kept...)
		}
	}
}

// reopen keeps what a store keeps: each live key's latest version.
func (m *stateModel) reopen() {
	latest := map[string][]VersionedValue{}
	for key, versions := range m.hist {
		if last := versions[len(versions)-1]; !last.Deleted {
			latest[key] = []VersionedValue{last}
		}
	}
	m.hist, m.horizon = latest, m.height
}

func (m *stateModel) clone() *stateModel {
	out := &stateModel{hist: map[string][]VersionedValue{}, height: m.height, horizon: m.horizon}
	for key, versions := range m.hist {
		out.hist[key] = append([]VersionedValue(nil), versions...)
	}
	return out
}

// at is key's version at the snapshot after block, if live.
func (m *stateModel) at(key string, block uint64) (VersionedValue, bool) {
	var found VersionedValue
	ok := false
	for _, vv := range m.hist[key] {
		if vv.Version.Block > block {
			break
		}
		found, ok = vv, !vv.Deleted
	}
	return found, ok
}

func sameVersion(a, b VersionedValue) bool {
	return bytes.Equal(a.Value, b.Value) && a.Version == b.Version && a.Deleted == b.Deleted
}

// checkModel compares every read of db with the model.
func checkModel(t *testing.T, label string, db *DB, m *stateModel, keys []string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if db.Height() != m.height {
		fail("height %d, model %d", db.Height(), m.height)
	}
	var live liveSum
	latest := map[string]VersionedValue{}
	for key := range m.hist {
		if vv, ok := m.at(key, m.height); ok {
			latest[key] = vv
			live.add(pairDigest(key, vv.Value))
		}
	}
	for _, key := range keys {
		vv, ok := db.Get(key)
		want, wantOK := latest[key]
		if ok != wantOK || (ok && !sameVersion(vv, want)) {
			fail("Get(%s) = %v %v, model %v %v", key, vv, ok, want, wantOK)
		}
		if n := db.VersionCount(key); n != len(m.hist[key]) {
			fail("VersionCount(%s) = %d, model %d", key, n, len(m.hist[key]))
		}
		if m.horizon > 0 {
			if _, _, err := db.GetAt(key, m.horizon-1); !errors.Is(err, ErrPruned) {
				fail("GetAt(%s, %d) below horizon %d: err %v", key, m.horizon-1, m.horizon, err)
			}
		}
		for b := m.horizon; b <= m.height; b++ {
			vv, ok, err := db.GetAt(key, b)
			want, wantOK := m.at(key, b)
			if err != nil || ok != wantOK || (ok && !sameVersion(vv, want)) {
				fail("GetAt(%s, %d) = %v %v %v, model %v %v", key, b, vv, ok, err, want, wantOK)
			}
		}
	}
	for b := m.horizon; b <= m.height; b++ {
		for _, r := range [][2]string{{"", ""}, {"g", "h"}, {"g05", "n03"}, {"n", ""}} {
			var want []string
			for key := range m.hist {
				if _, ok := m.at(key, b); ok && key >= r[0] && (r[1] == "" || key < r[1]) {
					want = append(want, key)
				}
			}
			sort.Strings(want)
			if got := db.KeysInRange(r[0], r[1], b); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				fail("KeysInRange(%q, %q, %d) = %v, model %v", r[0], r[1], b, got, want)
			}
		}
	}
	if n := liveKeys(db); n != len(latest) {
		fail("Keys() = %d, model %d", n, len(latest))
	}
	visited := map[string]VersionedValue{}
	db.ForEachLatest(func(key string, vv VersionedValue) bool {
		if _, dup := visited[key]; dup {
			fail("ForEachLatest visits %s twice", key)
		}
		visited[key] = vv
		return true
	})
	if len(visited) != len(latest) {
		fail("ForEachLatest visits %d keys, model %d", len(visited), len(latest))
	}
	for key, vv := range visited {
		if !sameVersion(vv, latest[key]) {
			fail("ForEachLatest(%s) = %v, model %v", key, vv, latest[key])
		}
	}
	if got := db.StateFingerprint(); got != live.String() {
		fail("StateFingerprint %s, model %s", got, live.String())
	}
}

// TestBaseAgainstHistoryModel is the model test of the base: a database
// seeded with a genesis base takes random blocks of puts and deletes over
// genesis and fresh keys — genesis keys deleted, re-put and deleted again —
// and prunes at random horizons (rising, repeated, stepping back, past the
// tip); clones are taken and folds forced along the way. After every step the database and
// every clone read exactly as a plain map-of-histories model does: Get,
// GetAt at every readable snapshot, KeysInRange, Keys, ForEachLatest,
// VersionCount and StateFingerprint.
func TestBaseAgainstHistoryModel(t *testing.T) { runBaseModel(t, false) }

// TestReopenedBaseAgainstHistoryModel is the same on a store, which the
// database also reopens from at random steps: the reopened state becomes
// its base, and it must read as the model's latest versions do.
func TestReopenedBaseAgainstHistoryModel(t *testing.T) { runBaseModel(t, true) }

func runBaseModel(t *testing.T, durable bool) {
	keys := make([]string, 0, 24)
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("g%02d", i))
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, fmt.Sprintf("n%02d", i))
	}
	folds := uint64(0)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		storeDir := t.TempDir()
		var kv *kvstore.DB
		open := func() *DB {
			var opts Options
			if durable {
				var err error
				if kv, err = kvstore.Open(kvstore.Options{Dir: storeDir}); err != nil {
					t.Fatal(err)
				}
				opts.Backing = kv
			}
			db, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		db := open()
		m := &stateModel{hist: map[string][]VersionedValue{}}
		var genesis []protocol.WriteItem
		for i := 15; i >= 0; i-- { // out of key order: NewBase sorts
			genesis = append(genesis, put(keys[i], fmt.Sprintf("init%d", i)))
		}
		if err := seedWrites(db, genesis); err != nil {
			t.Fatal(err)
		}
		if db.base.Load().Len() != 16 {
			t.Fatalf("seed %d: genesis went to histories, not the base", seed)
		}
		m.apply(0, []BlockWrites{{Pos: 1, Writes: genesis}})
		checkModel(t, fmt.Sprintf("seed %d genesis", seed), db, m, keys)

		type cloned struct {
			db *DB
			m  *stateModel
		}
		var clones []cloned
		horizon := uint64(0)
		for block := uint64(1); block <= 80; block++ {
			var txs []BlockWrites
			for pos := uint32(1); pos <= uint32(rng.Intn(4)); pos++ {
				var items []protocol.WriteItem
				for n := 1 + rng.Intn(3); n > 0; n-- {
					key := keys[rng.Intn(len(keys))]
					if rng.Intn(3) == 0 {
						items = append(items, protocol.WriteItem{Key: key, Delete: true})
					} else {
						items = append(items, put(key, fmt.Sprintf("v%d.%d", block, pos)))
					}
				}
				txs = append(txs, BlockWrites{Pos: pos, Writes: items})
			}
			apply(t, db, block, txs...)
			m.apply(block, txs)
			step := "apply"
			switch r := rng.Intn(12); {
			case r < 4:
				switch rng.Intn(4) {
				case 0: // step back, or repeat
					horizon -= min(horizon, uint64(rng.Intn(3)))
				case 1: // past the tip
					horizon = block + uint64(rng.Intn(3))
				default:
					horizon += uint64(rng.Intn(8))
				}
				db.PruneSnapshots(horizon)
				m.prune(horizon)
				step = fmt.Sprintf("prune at %d", horizon)
			case r == 4 && durable:
				if err := kv.Close(); err != nil {
					t.Fatal(err)
				}
				db = open()
				m.reopen()
				horizon = max(horizon, m.horizon)
				step = "reopen"
			case r == 5:
				clones = append(clones, cloned{db.Clone(), m.clone()})
				step = "clone"
			case r == 6:
				before := db.Folds()
				forceFold(db)
				folds += db.Folds() - before
				step = "fold"
			}
			label := fmt.Sprintf("seed %d block %d %s", seed, block, step)
			checkModel(t, label, db, m, keys)
			for i, c := range clones {
				checkModel(t, fmt.Sprintf("%s clone %d", label, i), c.db, c.m, keys)
			}
		}
		// A fresh key folded into the base and then deleted leaves the
		// histories and the base as they were before it was written.
		fresh := "n99"
		withFresh := append(slices.Clone(keys), fresh)
		db.PruneSnapshots(80)
		m.prune(80)
		forceFold(db)
		hist, baseLen := historyCount(db), db.base.Load().Len()
		for i, w := range []protocol.WriteItem{put(fresh, "fresh"), {Key: fresh, Delete: true}} {
			block := uint64(81 + i)
			txs := []BlockWrites{{Pos: 1, Writes: []protocol.WriteItem{w}}}
			apply(t, db, block, txs...)
			m.apply(block, txs)
			db.PruneSnapshots(block)
			m.prune(block)
			forceFold(db)
			label := fmt.Sprintf("seed %d block %d fresh key folded", seed, block)
			checkModel(t, label, db, m, withFresh)
			inBase := db.base.Load().find(fresh) >= 0
			if h, n := historyCount(db), db.base.Load().Len(); h != hist || n != baseLen+1-i || inBase != (i == 0) {
				t.Fatalf("%s: %d histories and %d base entries (%s in the base: %v), want %d and %d", label, h, n, fresh, inBase, hist, baseLen+1-i)
			}
		}
		if kv != nil {
			kv.Close()
		}
	}
	if folds == 0 {
		t.Error("no forced fold settled a history: the fold steps were vacuous")
	}
	t.Logf("%d forced folds settled histories", folds)
}

// forceFold folds db at once, however few histories it holds.
func forceFold(db *DB) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.fold()
}

// historyCount is how many keys hold a history, over every shard.
func historyCount(db *DB) int {
	n := 0
	for i := range db.shards {
		n += len(db.shards[i].hist)
	}
	return n
}

// seedWrites seeds db with writes as its genesis base at position 1 of
// block 0.
func seedWrites(db *DB, writes []protocol.WriteItem) error {
	base, err := NewBase(writes, seqno.Commit(0, 1))
	if err != nil {
		return err
	}
	return db.SeedBase(0, base)
}

// buildInOrder is BuildBase over writes exactly as given.
func buildInOrder(writes []protocol.WriteItem) (*Base, error) {
	return BuildBase(seqno.Commit(0, 1), func(put func(key, val []byte)) {
		for _, w := range writes {
			put([]byte(w.Key), w.Value)
		}
	})
}

// TestSeedBaseRefusesWhatABaseCannotHold pins that a genesis deleting a key
// or writing one twice is refused, leaving the database unseeded; that
// BuildBase refuses a key out of ascending order and a key given twice; and
// that a seeded database refuses a second genesis.
func TestSeedBaseRefusesWhatABaseCannotHold(t *testing.T) {
	for _, writes := range [][]protocol.WriteItem{
		{put("a", "1"), {Key: "b", Delete: true}},
		{put("a", "1"), put("a", "2")},
	} {
		db := mustNew(t)
		if err := seedWrites(db, writes); err == nil || db.Seeded() {
			t.Errorf("SeedBase(%v) = %v, seeded %v", writes, err, db.Seeded())
		}
	}
	for _, writes := range [][]protocol.WriteItem{
		{put("a", "1"), put("c", "3"), put("b", "2")},
		{put("a", "1"), put("b", "2"), put("b", "2")},
	} {
		if b, err := buildInOrder(writes); err == nil {
			t.Errorf("BuildBase(%v) built %d entries", writes, b.Len())
		}
	}
	db := mustNew(t)
	if err := seedWrites(db, []protocol.WriteItem{put("a", "1")}); err != nil {
		t.Fatal(err)
	}
	if err := seedWrites(db, []protocol.WriteItem{put("c", "3")}); err == nil {
		t.Error("SeedBase on a seeded database succeeded")
	}
}

// TestBaseIndexFindsEveryKey builds bases of many sizes and checks the index
// finds each key, and misses keys the base does not hold.
func TestBaseIndexFindsEveryKey(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 4097} {
		writes := make([]protocol.WriteItem, n)
		for i := range writes {
			writes[i] = put(fmt.Sprintf("key:%d", i), strings.Repeat("v", i%5))
		}
		b, err := NewBase(writes, seqno.Commit(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			v, ver, ok := b.Get(w.Key)
			if !ok || !bytes.Equal(v, w.Value) || ver != seqno.Commit(0, 1) {
				t.Fatalf("n=%d: Get(%s) = %q %v %v", n, w.Key, v, ver, ok)
			}
			if _, _, ok := b.Get(w.Key + "x"); ok {
				t.Fatalf("n=%d: Get(%sx) found a key the base does not hold", n, w.Key)
			}
		}
		if lo, hi := b.span("", ""); lo != 0 || hi != n {
			t.Fatalf("n=%d: span of everything = [%d, %d)", n, lo, hi)
		}
	}
	if _, err := NewBase(nil, seqno.Seq{}); err != nil {
		t.Fatal(err)
	}
}

// TestNewBaseSortsACopy builds a base from a shuffled write set: it equals
// the base of the write set in key order, and the caller's slice is left in
// the order it was given.
func TestNewBaseSortsACopy(t *testing.T) {
	sorted := make([]protocol.WriteItem, 500)
	for i := range sorted {
		sorted[i] = put(fmt.Sprintf("k%04d", i), fmt.Sprint(i))
	}
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	given := slices.Clone(shuffled)
	got, err := NewBase(shuffled, seqno.Commit(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildInOrder(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("NewBase of a shuffled write set differs from the base of the sorted one")
	}
	if !reflect.DeepEqual(shuffled, given) {
		t.Error("NewBase reordered the caller's write set")
	}
}

// TestBaseDigestIsTheSerialSum takes a base's fingerprint on 1, 2 and 8
// processors: each is the sum of pairDigest over the entries one by one.
func TestBaseDigestIsTheSerialSum(t *testing.T) {
	writes := make([]protocol.WriteItem, 10*digestChunk+7)
	for i := range writes {
		writes[i] = put(fmt.Sprintf("key:%d", i), strings.Repeat("v", i%9))
	}
	b, err := NewBase(writes, seqno.Commit(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	var serial liveSum
	for _, w := range writes {
		serial.add(pairDigest(w.Key, w.Value))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := b.digest(); got != serial {
			t.Errorf("GOMAXPROCS %d: digest %s, serial sum %s", procs, got, serial)
		}
	}
}

// TestSeededFingerprintEqualsAFold seeds a base of several digest chunks,
// in memory and on a store: the fingerprint equals the from-scratch fold
// over the live pairs, and so does a clone's, and the reopened store's.
func TestSeededFingerprintEqualsAFold(t *testing.T) {
	writes := make([]protocol.WriteItem, 3*digestChunk)
	for i := range writes {
		writes[i] = put(fmt.Sprintf("acct:%d", i), fmt.Sprint(i%1000))
	}
	for _, durable := range []bool{false, true} {
		var opts Options
		if durable {
			kv, err := kvstore.Open(kvstore.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			opts.Backing = kv
		}
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := seedWrites(db, writes); err != nil {
			t.Fatal(err)
		}
		want := foldLive(db)
		if got := db.StateFingerprint(); got != want {
			t.Errorf("durable %v: seeded fingerprint %s, fold %s", durable, got, want)
		}
		if got := db.Clone().StateFingerprint(); got != want {
			t.Errorf("durable %v: clone's fingerprint %s, fold %s", durable, got, want)
		}
		if !durable {
			continue
		}
		reopened, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.StateFingerprint(); got != want || foldLive(reopened) != want {
			t.Errorf("reopened fingerprint %s, fold %s, seeded %s", got, foldLive(reopened), want)
		}
	}
}
