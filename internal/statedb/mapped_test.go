//go:build unix

package statedb_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
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
// it — drops the base, the database and the shadow, collects until the
// finalizer has unmapped the index, and then reads everything it kept
// against a plain map. A key or value aliasing the unmapped index would
// fault here.
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
	for i := 0; i < outlivingRw; i++ {
		model[outlivingKey(i)] = "new"
	}
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
