package statedb

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"fabricsharp/internal/protocol"
)

// TestConcurrentSnapshotReadsNeverTorn hammers the sharded store with a
// committer applying blocks (and periodically pruning) while reader
// goroutines take snapshots and read through GetAt, SnapshotAt, and
// KeysInRange. Every block writes the SAME set of keys (striped across
// shards) with the block number as value, so a snapshot at height h must
// observe value h for every key — any mix of old and new values is a torn
// block. A point read the pruning has outrun fails with ErrPruned; one that
// succeeds must be exact however far behind it is. The keys start in the
// genesis base, beside base keys no block writes, which one reader reads
// throughout: their first write, every prune and every base read race. Run
// under -race this also proves the lock protocol has no data races.
func TestConcurrentSnapshotReadsNeverTorn(t *testing.T) {
	const (
		numKeys   = 16
		numBlocks = 400
		readers   = 4
		pruneLag  = 32 // blocks of history retained behind the tip
	)
	db, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, numKeys)
	baseKeys := make([]string, numKeys)
	var genesis []protocol.WriteItem
	for i := range keys {
		keys[i] = fmt.Sprintf("t:%02d", i)
		baseKeys[i] = fmt.Sprintf("b:%02d", i)
		genesis = append(genesis, protocol.WriteItem{Key: keys[i], Value: []byte("0")},
			protocol.WriteItem{Key: baseKeys[i], Value: []byte("base")})
	}
	if err := seedWrites(db, genesis); err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		failures atomic.Int32
	)
	fail := func(format string, args ...interface{}) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
		stop.Store(true)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				h := db.Height()
				if h == 0 {
					continue
				}
				// A reader can fall behind the committer. KeysInRange has no
				// horizon check, so assert its result only while the snapshot
				// is safely inside the retained history.
				behindHorizon := func() bool {
					tip := db.Height()
					return tip > pruneLag/2 && h < tip-pruneLag/2
				}
				switch r % 4 {
				case 0: // GetAt across all keys
					for _, k := range keys {
						vv, ok, err := db.GetAt(k, h)
						if errors.Is(err, ErrPruned) {
							break // the reader fell behind the pruned horizon
						}
						if err != nil {
							fail("GetAt(%q,%d): %v", k, h, err)
							return
						}
						if !ok {
							fail("GetAt(%q,%d): key missing at snapshot", k, h)
							return
						}
						if got := string(vv.Value); got != fmt.Sprint(h) {
							fail("torn block: GetAt(%q,%d) = %q, want %d", k, h, got, h)
							return
						}
						if vv.Version.Block != h {
							fail("torn block: GetAt(%q,%d) version block %d", k, h, vv.Version.Block)
							return
						}
					}
				case 1: // SnapshotAt + reads through the snapshot
					snap := db.SnapshotAt(h)
					for _, k := range keys {
						vv, ok, err := snap.Get(k)
						if errors.Is(err, ErrPruned) {
							break
						}
						if err != nil {
							fail("snapshot Get(%q,%d): %v", k, h, err)
							return
						}
						if !ok || string(vv.Value) != fmt.Sprint(h) {
							fail("torn block via snapshot: Get(%q,%d) = %q,%v", k, h, vv.Value, ok)
							return
						}
					}
				case 2: // KeysInRange must see the full live key set
					got := db.KeysInRange("t:", "t;", h)
					if behindHorizon() {
						break
					}
					if len(got) != numKeys {
						fail("KeysInRange at %d returned %d keys, want %d", h, len(got), numKeys)
						return
					}
				case 3: // base keys no block writes, read as blocks commit
					for _, k := range baseKeys {
						vv, ok := db.Get(k)
						at, okAt, err := db.GetAt(k, db.Height())
						if errors.Is(err, ErrPruned) {
							break
						}
						if !ok || !okAt || err != nil || string(vv.Value) != "base" || string(at.Value) != "base" || at.Version.Block != 0 {
							fail("base key %s: Get %q %v, GetAt %q %v %v", k, vv.Value, ok, at.Value, okAt, err)
							return
						}
					}
					if got := db.KeysInRange("b:", "b;", h); len(got) != numKeys {
						fail("KeysInRange over the base at %d returned %d keys, want %d", h, len(got), numKeys)
						return
					}
				}
			}
		}(r)
	}

	// Committer: every block rewrites every key with the block number,
	// split across several transactions so positions vary, pruning history
	// on a cadence.
	for b := uint64(1); b <= numBlocks && !stop.Load(); b++ {
		var txs []BlockWrites
		for pos := 0; pos < 4; pos++ {
			var ws []protocol.WriteItem
			for i := pos; i < numKeys; i += 4 {
				ws = append(ws, protocol.WriteItem{Key: keys[i], Value: []byte(fmt.Sprint(b))})
			}
			txs = append(txs, BlockWrites{Pos: uint32(pos + 1), Writes: ws})
		}
		if err := db.ApplyBlock(b, txs); err != nil {
			t.Fatalf("ApplyBlock(%d): %v", b, err)
		}
		if b%8 == 0 && b > pruneLag {
			db.PruneSnapshots(b - pruneLag)
		}
	}
	stop.Store(true)
	wg.Wait()

	if db.Height() != numBlocks && failures.Load() == 0 {
		t.Fatalf("height = %d, want %d", db.Height(), numBlocks)
	}
}

// TestReadsRaceFolds runs point reads (Get, GetAt) and snapshot range reads
// (ReadRange) against a committer that applies blocks, prunes 12 blocks
// behind its tip and folds every fifth block. Block b rewrites every base
// key whose number is b modulo 8 with value b, writes one fresh key, n:b,
// and deletes n:(b-20), which a fold has settled into the base by then, so
// a snapshot at h reads each base key's last such block at or before h, or
// its genesis value, and exactly the fresh keys n:(h-19) to n:h — each
// once, whichever base a fold published mid-scan, and none that a fold
// dropped. Under -race this also checks that a fold's build, publish and
// map swaps race no reader.
func TestReadsRaceFolds(t *testing.T) {
	const (
		numKeys   = 256
		numBlocks = 300
		pruneLag  = 12
		dropLag   = 20
	)
	db := mustNew(t)
	baseKey := func(i int) string { return fmt.Sprintf("b:%03d", i) }
	freshKey := func(b uint64) string { return fmt.Sprintf("n:%04d", b) }
	var genesis []protocol.WriteItem
	for i := 0; i < numKeys; i++ {
		genesis = append(genesis, protocol.WriteItem{Key: baseKey(i), Value: []byte("0")})
	}
	if err := seedWrites(db, genesis); err != nil {
		t.Fatal(err)
	}
	// want is base key i's value at the snapshot after block h.
	want := func(i int, h uint64) string {
		for b := h; b >= 1; b-- {
			if b%8 == uint64(i%8) {
				return fmt.Sprint(b)
			}
		}
		return "0"
	}
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		failures atomic.Int32
	)
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
		stop.Store(true)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				h := db.Height()
				i := n % numKeys
				switch r {
				case 0:
					vv, ok, err := db.GetAt(baseKey(i), h)
					if errors.Is(err, ErrPruned) {
						continue
					}
					if err != nil || !ok || string(vv.Value) != want(i, h) {
						fail("GetAt(%s, %d) = %q %v %v, want %s", baseKey(i), h, vv.Value, ok, err, want(i, h))
					}
				case 1: // the latest version: block h's or a later one
					vv, ok := db.Get(baseKey(i))
					v, err := strconv.ParseUint(string(vv.Value), 10, 64)
					if w, _ := strconv.ParseUint(want(i, h), 10, 64); !ok || err != nil || v < w || v != 0 && v%8 != uint64(i%8) {
						fail("Get(%s) after block %d = %q %v", baseKey(i), h, vv.Value, ok)
					}
				case 2:
					snap := db.SnapshotAt(h)
					fresh, err := snap.ReadRange("n:", "n;")
					if errors.Is(err, ErrPruned) {
						continue
					}
					based, err2 := snap.ReadRange("b:", "b;")
					if errors.Is(err2, ErrPruned) {
						continue
					}
					live := min(h, dropLag)
					if err != nil || err2 != nil || uint64(len(fresh)) != live || len(based) != numKeys {
						fail("ReadRange at %d: %d fresh keys, %d base keys (%v %v)", h, len(fresh), len(based), err, err2)
						continue
					}
					for j, key := range fresh {
						if key != freshKey(h-live+uint64(j+1)) {
							fail("ReadRange at %d: fresh key %d is %s", h, j, key)
							break
						}
					}
				}
			}
		}(r)
	}
	for b := uint64(1); b <= numBlocks && !stop.Load(); b++ {
		writes := []protocol.WriteItem{{Key: freshKey(b), Value: []byte(fmt.Sprint(b))}}
		if b > dropLag {
			writes = append(writes, protocol.WriteItem{Key: freshKey(b - dropLag), Delete: true})
		}
		for i := int(b % 8); i < numKeys; i += 8 {
			writes = append(writes, protocol.WriteItem{Key: baseKey(i), Value: []byte(fmt.Sprint(b))})
		}
		if err := db.ApplyBlock(b, []BlockWrites{{Pos: 1, Writes: writes}}); err != nil {
			t.Fatalf("ApplyBlock(%d): %v", b, err)
		}
		if b > pruneLag {
			db.PruneSnapshots(b - pruneLag)
		}
		if b%5 == 0 {
			forceFold(db)
		}
	}
	stop.Store(true)
	wg.Wait()
	if db.Folds() == 0 {
		t.Error("no fold settled a history")
	}
	if db.base.Load().find(freshKey(1)) >= 0 || db.VersionCount(freshKey(1)) != 0 {
		t.Errorf("%s, deleted long ago, is still held", freshKey(1))
	}
}
