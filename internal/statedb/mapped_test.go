//go:build unix

package statedb_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
)

// outliving is everything the accessors of a mapped base handed out, kept
// past the base.
type outliving struct {
	get, getAt, baseGet, shadowRead map[string][]byte
	baseKeys, inRange, rangeAfter   []string
	latest                          map[string][]byte
	preWrite                        map[string][]byte
	// read after folds replaced the base: the replaced base's entries, the
	// folded keys through the database, and a range across both folds
	replaced, folded map[string][]byte
	rangeFolded      []string
}

const (
	outlivingN  = 100000
	outlivingRw = 100 // base keys block 1 overwrites
)

func outlivingKey(i int) string { return fmt.Sprintf("k%06d", i) }

// readMappedBase builds a mapped base, seeds a database and a shadow with
// it, and returns what every accessor hands out; nothing else of them
// outlives the call.
func readMappedBase(t *testing.T, before int64) outliving {
	t.Helper()
	ver := seqno.Commit(0, 1)
	base, err := statedb.BuildBase(ver, func(put func(key, val []byte)) {
		for i := 0; i < outlivingN; i++ {
			put([]byte(outlivingKey(i)), []byte(fmt.Sprint(i)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if statedb.MappedBytes() == before {
		t.Fatal("a 100 000-entry base is not mapped")
	}
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SeedBase(0, base); err != nil {
		t.Fatal(err)
	}
	shadow := validation.NewValueShadowState()
	if err := shadow.SeedBase(base); err != nil {
		t.Fatal(err)
	}
	out := outliving{
		get: map[string][]byte{}, getAt: map[string][]byte{}, baseGet: map[string][]byte{},
		shadowRead: map[string][]byte{}, latest: map[string][]byte{}, preWrite: map[string][]byte{},
		replaced: map[string][]byte{}, folded: map[string][]byte{},
	}
	for i := 0; i < base.Len(); i++ {
		out.baseKeys = append(out.baseKeys, base.Key(i))
	}
	for i := 0; i < outlivingN; i += 7 {
		key := outlivingKey(i)
		vv, _ := db.Get(key)
		out.get[key] = vv.Value
		vv, _, _ = db.GetAt(key, 0)
		out.getAt[key] = vv.Value
		out.baseGet[key], _, _ = base.Get(key)
		out.shadowRead[key], _, _ = shadow.Read(key)
	}
	out.inRange = db.KeysInRange("k01", "k02", 0)
	var writes []protocol.WriteItem
	for i := 0; i < outlivingRw; i++ {
		writes = append(writes, protocol.WriteItem{Key: outlivingKey(i), Value: []byte("new")})
	}
	if err := db.ApplyBlock(1, []statedb.BlockWrites{{Pos: 1, Writes: writes}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < outlivingRw; i++ {
		vv, _, _ := db.GetAt(outlivingKey(i), 0)
		out.preWrite[outlivingKey(i)] = vv.Value
	}
	out.rangeAfter = db.KeysInRange("", "k00005", 1)
	db.ForEachLatest(func(key string, vv statedb.VersionedValue) bool {
		out.latest[key] = vv.Value
		return true
	})
	// The first fold settles block 1's writes of base keys into a base that
	// shares the genesis's key region; the second adds a fresh key, so its
	// base has a key region of its own.
	db.PruneSnapshots(1)
	mappedBefore := statedb.MappedBytes()
	statedb.ForceFold(db)
	if err := db.ApplyBlock(2, []statedb.BlockWrites{{Pos: 1, Writes: []protocol.WriteItem{{Key: "k1-fresh", Value: []byte("fresh")}}}}); err != nil {
		t.Fatal(err)
	}
	db.PruneSnapshots(2)
	statedb.ForceFold(db)
	if db.Folds() != 2 || statedb.MappedBytes() == mappedBefore {
		t.Fatalf("%d folds mapped %d bytes, want 2 folds and new mappings", db.Folds(), statedb.MappedBytes()-mappedBefore)
	}
	for i := 0; i < outlivingRw; i++ {
		key := outlivingKey(i)
		out.replaced[key], _, _ = base.Get(key)
		vv, _ := db.Get(key)
		out.folded[key] = vv.Value
	}
	out.rangeFolded = db.KeysInRange("k000", "k2", 2)
	return out
}

// settledMappedBytes collects until the finalizers of the bases earlier
// tests dropped have run, and returns the bytes the live ones keep mapped.
func settledMappedBytes() int64 {
	for {
		m := statedb.MappedBytes()
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if statedb.MappedBytes() == m {
			return m
		}
	}
}

// TestBaseReadsOutliveTheBase keeps what every accessor of a mapped base
// hands out — Get, GetAt, Base.Get, Base.Key, KeysInRange, ForEachLatest, a
// shadow's Read, and a base key's pre-write version once a block overwrote
// it — and, once two folds replaced the base (one sharing its key region,
// one not), what the replaced base and the folded ones hand out; drops the
// bases, the database and the shadow, collects until the finalizers have
// unmapped every region, and then reads everything it kept against a plain
// map. A key or value aliasing an unmapped region would fault here.
func TestBaseReadsOutliveTheBase(t *testing.T) {
	before := settledMappedBytes()
	out := readMappedBase(t, before)
	for deadline := time.Now().Add(10 * time.Second); statedb.MappedBytes() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("the index is still mapped 10 s after its base became unreachable (%d bytes)", statedb.MappedBytes()-before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	model := map[string]string{}
	for i := 0; i < outlivingN; i++ {
		model[outlivingKey(i)] = fmt.Sprint(i)
	}
	genesis := func(label string, got map[string][]byte) {
		t.Helper()
		for key, v := range got {
			if string(v) != model[key] {
				t.Fatalf("%s(%s) = %q, model %q", label, key, v, model[key])
			}
		}
	}
	genesis("Get", out.get)
	genesis("GetAt", out.getAt)
	genesis("Base.Get", out.baseGet)
	genesis("ShadowState.Read", out.shadowRead)
	genesis("GetAt before the write", out.preWrite)
	if len(out.baseKeys) != outlivingN {
		t.Fatalf("Base.Key gave %d keys, model %d", len(out.baseKeys), outlivingN)
	}
	var inRange, rangeAfter []string
	for i, key := range out.baseKeys {
		if key != outlivingKey(i) {
			t.Fatalf("Base.Key(%d) = %q, model %q", i, key, outlivingKey(i))
		}
		if key >= "k01" && key < "k02" {
			inRange = append(inRange, key)
		}
		if key < "k00005" {
			rangeAfter = append(rangeAfter, key)
		}
	}
	if !reflect.DeepEqual(out.inRange, inRange) || !reflect.DeepEqual(out.rangeAfter, rangeAfter) {
		t.Fatalf("KeysInRange gave %d and %d keys, model %d and %d", len(out.inRange), len(out.rangeAfter), len(inRange), len(rangeAfter))
	}
	genesis("the replaced base's Get", out.replaced)
	if rangeFolded := append(slices.Clone(out.baseKeys), "k1-fresh"); !reflect.DeepEqual(out.rangeFolded, rangeFolded) {
		t.Fatalf("KeysInRange after the folds gave %d keys, model %d", len(out.rangeFolded), len(rangeFolded))
	}
	for i := 0; i < outlivingRw; i++ {
		model[outlivingKey(i)] = "new"
	}
	genesis("Get of a folded key", out.folded)
	if len(out.latest) != len(model) {
		t.Fatalf("ForEachLatest visited %d keys, model %d", len(out.latest), len(model))
	}
	for key, v := range out.latest {
		if want, ok := model[key]; !ok || !bytes.Equal(v, []byte(want)) {
			t.Fatalf("ForEachLatest(%s) = %q, model %q %v", key, v, want, ok)
		}
	}
}

// TestGenesisBaseIsOffTheHeap builds the benchmark's 100 000-account
// msmallbank genesis: only its values stay on the heap (about 0.4 MiB), its
// keys and index go to a mapping, so the live heap grows by at most 640 KiB
// where the whole base used to add 3.06 MiB.
func TestGenesisBaseIsOffTheHeap(t *testing.T) {
	sc, ok := scenario.Get("msmallbank")
	if !ok {
		t.Fatal("no msmallbank scenario")
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	base, err := sc.GenesisBase(scenario.Params{Accounts: 100000})
	if err != nil {
		t.Fatal(err)
	}
	grew := live() - before
	if base.Len() != 100000 {
		t.Fatalf("genesis holds %d accounts", base.Len())
	}
	if grew > 640<<10 {
		t.Errorf("the 100 000-account genesis added %d KiB to the live heap, want at most 640", grew>>10)
	}
	t.Logf("the 100 000-account genesis adds %d KiB to the live heap", grew>>10)
	runtime.KeepAlive(base)
}

// TestWrittenKeysFoldIntoTheBase writes every key of a 100 000-entry mapped
// genesis once, 1 000 keys a block, into a database that prunes 11 blocks
// behind its tip as a peer does and into an orderer's shadow, and then
// takes both 12 empty blocks past the last write. What each holds on the
// heap for a written key is then a share of the base's values, plus a map
// history or entry for the keys written since its last fold, fewer than a
// fold step: at most 100 B a key on the database and 80 B on the shadow,
// where a history or an entry kept each key's first write for good (182 and
// 126 B on these keys).
func TestWrittenKeysFoldIntoTheBase(t *testing.T) {
	const n, perBlock = 100000, 1000
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	genesis := func() *statedb.Base {
		base, err := statedb.BuildBase(seqno.Commit(0, 1), func(put func(key, val []byte)) {
			for i := 0; i < n; i++ {
				put([]byte(outlivingKey(i)), []byte(fmt.Sprintf("%06d", i)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	blockWrites := func(b int) []protocol.WriteItem {
		var ws []protocol.WriteItem
		for i := (b - 1) * perBlock; i < b*perBlock && i < n; i++ {
			ws = append(ws, protocol.WriteItem{Key: outlivingKey(i), Value: []byte(fmt.Sprintf("w%05d", i))})
		}
		return ws
	}
	const blocks = n/perBlock + 12
	perKey := func(label string, before int64, keep any, bound int64) {
		t.Helper()
		grew := live() - before
		runtime.KeepAlive(keep)
		t.Logf("%s: %d B of heap per written key", label, grew/n)
		if grew > bound*n {
			t.Errorf("%s holds %d B of heap per written key past the horizon, want at most %d", label, grew/n, bound)
		}
	}

	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SeedBase(0, genesis()); err != nil {
		t.Fatal(err)
	}
	before := live()
	for b := 1; b <= blocks; b++ {
		if err := db.ApplyBlock(uint64(b), []statedb.BlockWrites{{Pos: 1, Writes: blockWrites(b)}}); err != nil {
			t.Fatal(err)
		}
		if b > 11 {
			db.PruneSnapshots(uint64(b - 11))
		}
	}
	if vv, ok := db.Get(outlivingKey(n - 1)); !ok || string(vv.Value) != fmt.Sprintf("w%05d", n-1) {
		t.Fatalf("the last written key reads %q %v", vv.Value, ok)
	}
	perKey("statedb.DB", before, db, 100)

	shadow := validation.NewValueShadowState()
	if err := shadow.SeedBase(genesis()); err != nil {
		t.Fatal(err)
	}
	before = live()
	for b := 1; b <= blocks; b++ {
		tx := &protocol.Transaction{RWSet: protocol.RWSet{Writes: blockWrites(b)}}
		shadow.ApplyRescued(uint64(b), []*protocol.Transaction{tx}, []protocol.ValidationCode{protocol.Valid}, nil)
	}
	if v, _, ok := shadow.Read(outlivingKey(n - 1)); !ok || string(v) != fmt.Sprintf("w%05d", n-1) {
		t.Fatalf("the last written key reads %q %v", v, ok)
	}
	perKey("validation.ShadowState", before, shadow, 80)
}
