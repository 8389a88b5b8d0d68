package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	if n := db.Keys(); n != len(latest) {
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
// tip); clones are taken along the way. After every step the database and
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
		for i := 15; i >= 0; i-- { // out of key order: SeedBase sorts
			genesis = append(genesis, put(keys[i], fmt.Sprintf("init%d", i)))
		}
		if err := db.SeedBase(seqno.Commit(0, 1), genesis); err != nil {
			t.Fatal(err)
		}
		if db.base.Len() != 16 {
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
			}
			label := fmt.Sprintf("seed %d block %d %s", seed, block, step)
			checkModel(t, label, db, m, keys)
			for i, c := range clones {
				checkModel(t, fmt.Sprintf("%s clone %d", label, i), c.db, c.m, keys)
			}
		}
		if kv != nil {
			kv.Close()
		}
	}
}

// TestSeedBaseRefusesWhatABaseCannotHold pins that a genesis deleting a key
// or writing one twice is refused, leaving the database unseeded, and that a
// seeded database refuses a second genesis.
func TestSeedBaseRefusesWhatABaseCannotHold(t *testing.T) {
	for _, writes := range [][]protocol.WriteItem{
		{put("a", "1"), {Key: "b", Delete: true}},
		{put("a", "1"), put("a", "2")},
	} {
		db := mustNew(t)
		if err := db.SeedBase(seqno.Commit(0, 1), writes); err == nil || db.Seeded() {
			t.Errorf("SeedBase(%v) = %v, seeded %v", writes, err, db.Seeded())
		}
	}
	db := mustNew(t)
	if err := db.SeedBase(seqno.Commit(0, 1), []protocol.WriteItem{put("a", "1")}); err != nil {
		t.Fatal(err)
	}
	if err := db.SeedBase(seqno.Commit(0, 1), []protocol.WriteItem{put("c", "3")}); err == nil {
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
