package statedb

import (
	"fmt"
	"math/rand"
	"testing"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

func mustNew(t *testing.T) *DB {
	t.Helper()
	db, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func apply(t *testing.T, db *DB, block uint64, writes ...BlockWrites) {
	t.Helper()
	if err := db.ApplyBlock(block, writes); err != nil {
		t.Fatal(err)
	}
}

func put(key, value string) protocol.WriteItem {
	return protocol.WriteItem{Key: key, Value: []byte(value)}
}

func TestPaperFigure2Example(t *testing.T) {
	// Reconstructs the states after blocks 1-3 of Figure 2a.
	db := mustNew(t)
	apply(t, db, 1,
		BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("A", "100")}},
		BlockWrites{Pos: 2, Writes: []protocol.WriteItem{put("B", "101")}},
		BlockWrites{Pos: 3, Writes: []protocol.WriteItem{put("C", "102")}},
	)
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("B", "201"), put("C", "201")}})
	apply(t, db, 3, BlockWrites{Pos: 3, Writes: []protocol.WriteItem{put("C", "303")}})

	// State after block 3 per the figure: A=(1,1)/100, B=(2,1)/201, C=(3,3)/303.
	checks := []struct {
		key string
		ver seqno.Seq
		val string
	}{
		{"A", seqno.Commit(1, 1), "100"},
		{"B", seqno.Commit(2, 1), "201"},
		{"C", seqno.Commit(3, 3), "303"},
	}
	for _, c := range checks {
		vv, ok := db.Get(c.key)
		if !ok || vv.Version != c.ver || string(vv.Value) != c.val {
			t.Errorf("Get(%s) = %v/%q ok=%v, want %v/%q", c.key, vv.Version, vv.Value, ok, c.ver, c.val)
		}
	}
	// Snapshot after block 2 per the figure: C=(2,1)/201.
	vv, ok, err := db.GetAt("C", 2)
	if err != nil || !ok || vv.Version != seqno.Commit(2, 1) || string(vv.Value) != "201" {
		t.Errorf("GetAt(C, 2) = %v/%q, want (2,1)/201", vv.Version, vv.Value)
	}
	// Snapshot after block 1: C=(1,3)/102.
	vv, _, _ = db.GetAt("C", 1)
	if vv.Version != seqno.Commit(1, 3) || string(vv.Value) != "102" {
		t.Errorf("GetAt(C, 1) = %v/%q, want (1,3)/102", vv.Version, vv.Value)
	}
}

func TestGetAtBeforeCreation(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("K", "v")}})
	if _, ok, _ := db.GetAt("K", 0); ok {
		t.Error("key visible before it was written")
	}
	if _, ok, _ := db.GetAt("missing", 1); ok {
		t.Error("absent key visible")
	}
}

func TestDeleteVisibility(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("K", "v")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{{Key: "K", Delete: true}}})
	if _, ok := db.Get("K"); ok {
		t.Error("deleted key still visible at latest")
	}
	if vv, ok, _ := db.GetAt("K", 1); !ok || string(vv.Value) != "v" {
		t.Error("historical read of deleted key failed")
	}
	if _, ok, _ := db.GetAt("K", 2); ok {
		t.Error("deleted key visible at deletion snapshot")
	}
}

func TestOutOfOrderBlocksRejected(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1)
	if err := db.ApplyBlock(1, nil); err == nil {
		t.Error("duplicate block accepted")
	}
	if err := db.ApplyBlock(0, nil); err == nil {
		t.Error("older block accepted")
	}
	// Gaps are fine (blocks with no writes still advance height elsewhere).
	if err := db.ApplyBlock(5, nil); err != nil {
		t.Errorf("gap block rejected: %v", err)
	}
	if db.Height() != 5 {
		t.Errorf("height = %d want 5", db.Height())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("X", "old")}})
	snap := db.LatestSnapshot()
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("X", "new")}})
	vv, ok, err := snap.Get("X")
	if err != nil || !ok || string(vv.Value) != "old" {
		t.Errorf("snapshot read = %q, want old", vv.Value)
	}
	if snap.Block() != 1 {
		t.Errorf("snapshot block = %d", snap.Block())
	}
	if vv, _ := db.Get("X"); string(vv.Value) != "new" {
		t.Error("latest read should see the new value")
	}
}

func TestPruneSnapshots(t *testing.T) {
	db := mustNew(t)
	for b := uint64(1); b <= 20; b++ {
		apply(t, db, b, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("hot", fmt.Sprintf("v%d", b))}})
	}
	if n := db.VersionCount("hot"); n != 20 {
		t.Fatalf("expected 20 versions, got %d", n)
	}
	db.PruneSnapshots(15)
	// Versions 15..20 remain (the version at block 15 serves snapshot 15).
	if n := db.VersionCount("hot"); n != 6 {
		t.Fatalf("after prune: %d versions, want 6", n)
	}
	for b := uint64(15); b <= 20; b++ {
		vv, ok, err := db.GetAt("hot", b)
		if err != nil || !ok || string(vv.Value) != fmt.Sprintf("v%d", b) {
			t.Errorf("GetAt(hot,%d) = %q ok=%v err=%v", b, vv.Value, ok, err)
		}
	}
}

func TestPruneDropsDeletedKeys(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("gone", "v")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{{Key: "gone", Delete: true}}})
	db.PruneSnapshots(3)
	if db.VersionCount("gone") != 0 {
		t.Error("fully deleted key should be garbage collected")
	}
}

func TestBackingPersistence(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Backing: kv})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, db, 1, BlockWrites{Pos: 2, Writes: []protocol.WriteItem{put("persist", "me")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("persist", "me2"), put("other", "x")}})

	// Reload from the same backing store.
	db2, err := New(Options{Backing: kv})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Height() != 2 {
		t.Errorf("reloaded height = %d want 2", db2.Height())
	}
	vv, ok := db2.Get("persist")
	if !ok || string(vv.Value) != "me2" || vv.Version != seqno.Commit(2, 1) {
		t.Errorf("reloaded value = %q/%v", vv.Value, vv.Version)
	}
	if _, ok := db2.Get("other"); !ok {
		t.Error("second key lost")
	}

	// A rider lands in the block's batch and is no part of the state; an
	// unbacked database takes riders and drops them.
	if db.Seeded() != true || !db.Durable() {
		t.Errorf("Seeded, Durable = %v, %v on a backed database at height 2", db.Seeded(), db.Durable())
	}
	rider := kvstore.BatchOp{Key: []byte("b/rider"), Value: []byte("record")}
	if err := db.ApplyBlock(3, nil, rider); err != nil {
		t.Fatal(err)
	}
	var stored []string
	if err := kv.Scan(rider.Key, func(_, v []byte) error { stored = append(stored, string(v)); return nil }); err != nil || len(stored) != 1 || stored[0] != "record" {
		t.Errorf("rider in the store = %q, %v", stored, err)
	}
	if db3, err := New(Options{Backing: kv}); err != nil || db3.Height() != 3 || db3.Keys() != 2 {
		t.Errorf("reload after a rider: height %d, %d keys, err %v; want 3, 2", db3.Height(), db3.Keys(), err)
	}
	mem := mustNew(t)
	if mem.Seeded() || mem.Durable() {
		t.Error("a fresh in-memory database reports Seeded or Durable")
	}
	if err := mem.ApplyBlock(0, nil, rider); err != nil || !mem.Seeded() {
		t.Errorf("in-memory ApplyBlock with a rider: err %v, Seeded %v", err, mem.Seeded())
	}
}

func TestBackingDeletePersisted(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	db, _ := New(Options{Backing: kv})
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("k", "v")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{{Key: "k", Delete: true}}})
	db2, _ := New(Options{Backing: kv})
	if _, ok := db2.Get("k"); ok {
		t.Error("deleted key resurrected from backing store")
	}
}

func TestCloneIndependence(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("a", "1")}})
	clone := db.Clone()
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("a", "2")}})
	if vv, _ := clone.Get("a"); string(vv.Value) != "1" {
		t.Error("clone observed mutation of original")
	}
	if err := clone.ApplyBlock(2, []BlockWrites{{Pos: 1, Writes: []protocol.WriteItem{put("b", "9")}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Get("b"); ok {
		t.Error("original observed mutation of clone")
	}
}

func TestStateFingerprint(t *testing.T) {
	a := mustNew(t)
	b := mustNew(t)
	apply(t, a, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("x", "1"), put("y", "2")}})
	// Same contents via a different block/version history.
	apply(t, b, 3, BlockWrites{Pos: 7, Writes: []protocol.WriteItem{put("y", "2")}})
	apply(t, b, 4, BlockWrites{Pos: 2, Writes: []protocol.WriteItem{put("x", "1")}})
	if a.StateFingerprint() != b.StateFingerprint() {
		t.Error("fingerprint should ignore versions and depend on content only")
	}
	apply(t, a, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("x", "other")}})
	if a.StateFingerprint() == b.StateFingerprint() {
		t.Error("fingerprint should change with content")
	}
}

// foldLive computes the fingerprint from scratch: one pass over the live
// pairs, the reference the maintained value is held to.
func foldLive(db *DB) string {
	var sum liveSum
	db.ForEachLatest(func(key string, vv VersionedValue) bool {
		sum.add(pairDigest(key, vv.Value))
		return true
	})
	return sum.String()
}

// TestMaintainedFingerprintEqualsAFold drives random blocks of puts,
// overwrites, deletes, deletes of absent keys and re-creations into a durable
// database and a clone of it, then a second database through a different
// history to the same live contents: after every block the maintained
// fingerprint equals the from-scratch fold, it survives Clone and reopening
// from the backing store, and equal contents agree whatever built them.
func TestMaintainedFingerprintEqualsAFold(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	db, err := New(Options{Backing: kv})
	if err != nil {
		t.Fatal(err)
	}
	empty := db.StateFingerprint()
	rng := rand.New(rand.NewSource(11))
	model := map[string]string{}
	for block := uint64(1); block <= 60; block++ {
		var writes []BlockWrites
		for pos := uint32(1); pos <= uint32(1+rng.Intn(4)); pos++ {
			var items []protocol.WriteItem
			for n := 1 + rng.Intn(3); n > 0; n-- {
				key := fmt.Sprintf("k%d", rng.Intn(12))
				if rng.Intn(4) == 0 {
					items = append(items, protocol.WriteItem{Key: key, Delete: true})
					delete(model, key)
				} else {
					val := fmt.Sprintf("v%d", rng.Intn(5))
					items = append(items, put(key, val))
					model[key] = val
				}
			}
			writes = append(writes, BlockWrites{Pos: pos, Writes: items})
		}
		apply(t, db, block, writes...)
		if block%7 == 0 {
			db.PruneSnapshots(block - 2)
		}
		if got, want := db.StateFingerprint(), foldLive(db); got != want {
			t.Fatalf("block %d: maintained fingerprint %s, from-scratch fold %s", block, got, want)
		}
	}
	want := db.StateFingerprint()
	if clone := db.Clone(); clone.StateFingerprint() != want {
		t.Error("Clone dropped the fingerprint")
	}
	reopened, err := New(Options{Backing: kv})
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.StateFingerprint(); got != want || got != foldLive(reopened) {
		t.Errorf("reopened fingerprint %s, want %s", got, want)
	}
	// The same live contents in one block, written in Go's map order.
	other := mustNew(t)
	var items []protocol.WriteItem
	for key, val := range model {
		items = append(items, put(key, val))
	}
	apply(t, other, 1, BlockWrites{Pos: 1, Writes: items})
	if got := other.StateFingerprint(); got != want {
		t.Errorf("equal contents, different histories: %s vs %s", got, want)
	}
	// Deleting everything returns to the empty database's fingerprint.
	items = items[:0]
	for key := range model {
		items = append(items, protocol.WriteItem{Key: key, Delete: true})
	}
	apply(t, other, 2, BlockWrites{Pos: 1, Writes: items})
	if got := other.StateFingerprint(); got != empty {
		t.Errorf("emptied database fingerprints %s, an empty one %s", got, empty)
	}
}

func TestKeysAndForEach(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("a", "1"), put("b", "2"), put("c", "3")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{{Key: "b", Delete: true}}})
	if db.Keys() != 2 {
		t.Errorf("Keys = %d want 2", db.Keys())
	}
	seen := map[string]bool{}
	db.ForEachLatest(func(k string, vv VersionedValue) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 2 || !seen["a"] || !seen["c"] {
		t.Errorf("ForEachLatest visited %v", seen)
	}
}

func TestHistoryRandomizedAgainstModel(t *testing.T) {
	// Property: GetAt(key, b) always equals a model rebuilt from the write
	// log truncated at block b.
	db := mustNew(t)
	rng := rand.New(rand.NewSource(99))
	type write struct {
		block uint64
		key   string
		val   string
	}
	var log []write
	for b := uint64(1); b <= 30; b++ {
		var ws []protocol.WriteItem
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(8))
			v := fmt.Sprintf("v%d-%d", b, i)
			ws = append(ws, put(k, v))
			log = append(log, write{b, k, v})
		}
		apply(t, db, b, BlockWrites{Pos: 1, Writes: ws})
	}
	for trial := 0; trial < 200; trial++ {
		b := uint64(rng.Intn(31))
		k := fmt.Sprintf("k%d", rng.Intn(8))
		want := ""
		found := false
		for _, w := range log {
			if w.block <= b && w.key == k {
				want = w.val
				found = true
			}
		}
		vv, ok, err := db.GetAt(k, b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != found || (ok && string(vv.Value) != want) {
			t.Fatalf("GetAt(%s,%d) = %q,%v want %q,%v", k, b, vv.Value, ok, want, found)
		}
	}
}
