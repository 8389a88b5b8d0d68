package statedb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fabricsharp/internal/protocol"
)

// fullSweep is the reference pruning PruneSnapshots must match: every key of
// every shard is cut to its latest version at or before horizon plus
// everything after it, and dropped when that is a lone tombstone.
func fullSweep(db *DB, horizon uint64) {
	for i := range db.shards {
		hist := db.shards[i].hist
		for key, versions := range hist {
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
			kept := versions[idx:]
			if len(kept) == 1 && kept[0].Deleted {
				delete(hist, key)
				continue
			}
			hist[key] = append([]VersionedValue(nil), kept...)
		}
	}
}

// histories copies every shard's history map, for comparison.
func histories(db *DB) []map[string][]VersionedValue {
	out := make([]map[string][]VersionedValue, len(db.shards))
	for i := range db.shards {
		out[i] = map[string][]VersionedValue{}
		for k, v := range db.shards[i].hist {
			out[i][k] = v
		}
	}
	return out
}

// TestIncrementalPruneMatchesFullSweep is the model test of the incremental
// PruneSnapshots: two databases take the same random blocks of writes and
// deletes over a small key space; one prunes incrementally, the other by a
// sweep of every key; at random horizons — rising, repeated, stepping back,
// jumping past the tip — their histories must stay identical.
func TestIncrementalPruneMatchesFullSweep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, ref := mustNew(t), mustNew(t)
		horizon := uint64(0)
		for block := uint64(0); block <= 120; block++ {
			var writes []BlockWrites
			for pos := uint32(1); pos <= uint32(rng.Intn(4)); pos++ {
				var items []protocol.WriteItem
				for n := 1 + rng.Intn(3); n > 0; n-- {
					key := fmt.Sprintf("k%d", rng.Intn(10))
					if rng.Intn(3) == 0 {
						items = append(items, protocol.WriteItem{Key: key, Delete: true})
					} else {
						items = append(items, put(key, fmt.Sprintf("v%d.%d", block, pos)))
					}
				}
				writes = append(writes, BlockWrites{Pos: pos, Writes: items})
			}
			apply(t, inc, block, writes...)
			apply(t, ref, block, writes...)
			if rng.Intn(3) != 0 {
				continue
			}
			switch rng.Intn(4) {
			case 0: // step back, or repeat
				horizon -= min(horizon, uint64(rng.Intn(3)))
			case 1: // past the tip
				horizon = block + uint64(rng.Intn(3))
			default:
				horizon += uint64(rng.Intn(8))
			}
			inc.PruneSnapshots(horizon)
			fullSweep(ref, horizon)
			if !reflect.DeepEqual(histories(inc), histories(ref)) {
				t.Fatalf("seed %d: after block %d, prune at %d: incremental history differs from the full sweep", seed, block, horizon)
			}
		}
	}
}

// TestGetAtBelowThePrunedHorizonFails pins that a snapshot read the pruning
// has outrun is refused, never answered from the versions that are left.
func TestGetAtBelowThePrunedHorizonFails(t *testing.T) {
	db := mustNew(t)
	apply(t, db, 1, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("k", "v1")}})
	apply(t, db, 2, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("new", "n")}})
	for b := uint64(3); b <= 6; b++ {
		apply(t, db, b, BlockWrites{Pos: 1, Writes: []protocol.WriteItem{put("k", fmt.Sprintf("v%d", b))}})
	}
	db.PruneSnapshots(4)
	// The prune kept k's versions from block 4 on: without the horizon,
	// snapshots 1 and 3 would both read k as absent.
	for _, b := range []uint64{1, 3} {
		if _, _, err := db.GetAt("k", b); !errors.Is(err, ErrPruned) {
			t.Errorf("GetAt(k, %d) below horizon 4: err %v, want ErrPruned", b, err)
		}
		if _, err := db.SnapshotAt(b).ReadRange("", ""); !errors.Is(err, ErrPruned) {
			t.Errorf("ReadRange at %d below horizon 4: err %v, want ErrPruned", b, err)
		}
	}
	for b := uint64(4); b <= 6; b++ {
		vv, ok, err := db.GetAt("k", b)
		if err != nil || !ok || string(vv.Value) != fmt.Sprintf("v%d", b) {
			t.Errorf("GetAt(k, %d) = %q ok=%v err=%v", b, vv.Value, ok, err)
		}
	}
	if vv, ok, err := db.GetAt("new", 4); err != nil || !ok || string(vv.Value) != "n" {
		t.Errorf("GetAt(new, 4) = %q ok=%v err=%v", vv.Value, ok, err)
	}
}
