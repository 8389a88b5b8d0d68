package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
)

// writeSetDigest hashes a write set in order: each write's key and value
// length-prefixed, then its delete flag.
func writeSetDigest(writes []protocol.WriteItem) string {
	h := sha256.New()
	var n [4]byte
	for _, w := range writes {
		binary.BigEndian.PutUint32(n[:], uint32(len(w.Key)))
		h.Write(n[:])
		h.Write([]byte(w.Key))
		binary.BigEndian.PutUint32(n[:], uint32(len(w.Value)))
		h.Write(n[:])
		h.Write(w.Value)
		if w.Delete {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:32]
}

// TestGenesisWriteSetsArePinned holds every genesis builder to the write set
// it has always produced, byte for byte and in order: a peer's state, an
// orderer's shadow and a durable peer's store all start from these bytes,
// and a replica built from a different release must agree with them.
func TestGenesisWriteSetsArePinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes []protocol.WriteItem
		want   string
	}{
		{"AccountGenesis(1234)", AccountGenesis(1234), "f0aee6d60c2e21b23e38abeb9c601d98"},
		{"AccountGenesis(100000)", AccountGenesis(100000), "5a8b514bd45b91a53585866d8a07b53a"},
		{"SmallbankGenesis(1234)", SmallbankGenesis(1234), "c9fa347d24ec7a59a76f2f06df6c56e5"},
		{"SmallbankGenesis(100000)", SmallbankGenesis(100000), "98878b5cc8301bf0db57198f58a276a0"},
		{"TokenGenesis(1234)", TokenGenesis(1234), "80f3130b5fa2995296f3ffbeccdcc76e"},
		{"AnalyticsGenesis(1234)", AnalyticsGenesis(1234), "a81a27b0d49df8fa5f398d9f365fd5fc"},
		{"AuctionGenesis()", AuctionGenesis(), "712c061fa2e7112cfcab9df7c64b74ca"},
	} {
		if got := writeSetDigest(tc.writes); got != tc.want {
			t.Errorf("%s digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestNumberedKeysAreInKeyOrder holds the genesis builders' enumerator to
// what it stands for: the keys of [0, n) under a prefix, in the order
// sort.Strings gives their decimal strings, for every n up to 2 100 (each
// turnover of the digit count up to four digits, on both sides) and for the
// benchmark's 100 000.
func TestNumberedKeysAreInKeyOrder(t *testing.T) {
	keys := func(prefix string, n int) []string {
		var out []string
		numberedKeys(prefix, n, func(key []byte) { out = append(out, string(key)) })
		return out
	}
	sorted := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = strconv.Itoa(i)
		}
		sort.Strings(out)
		return out
	}
	const most = 2100
	all := sorted(most)
	for n := 0; n <= most; n++ {
		want := make([]string, 0, n)
		for _, s := range all {
			if i, _ := strconv.Atoi(s); i < n {
				want = append(want, s)
			}
		}
		if got := keys("", n); !slices.Equal(got, want) {
			t.Fatalf("n=%d: %v, want %v", n, got, want)
		}
	}
	want := sorted(100000)
	for i := range want {
		want[i] = "acct:" + want[i]
	}
	if got := keys("acct:", 100000); !slices.Equal(got, want) {
		t.Fatal("n=100000: the keys are not sort.Strings' order")
	}
}

// TestGenesisBuildersAllocateAtMostTwicePerKey bounds what a node spends
// building its genesis at boot: a key and its value cost at most two
// allocations between them.
func TestGenesisBuildersAllocateAtMostTwicePerKey(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name  string
		keys  int
		build func() []protocol.WriteItem
	}{
		{"AccountGenesis", n, func() []protocol.WriteItem { return AccountGenesis(n) }},
		{"SmallbankGenesis", 2 * n, func() []protocol.WriteItem { return SmallbankGenesis(n) }},
		{"TokenGenesis", n, func() []protocol.WriteItem { return TokenGenesis(n) }},
		{"AnalyticsGenesis", n + 1, func() []protocol.WriteItem { return AnalyticsGenesis(n) }},
	} {
		if allocs := testing.AllocsPerRun(5, func() { tc.build() }); allocs > float64(2*tc.keys) {
			t.Errorf("%s: %.0f allocations for %d keys", tc.name, allocs, tc.keys)
		}
	}
}

// seedAccounts builds the n-account genesis base and seeds it into a fresh
// state database, backed by kv when kv is not nil.
func seedAccounts(tb testing.TB, n int, kv *kvstore.DB) {
	db, err := statedb.New(statedb.Options{Backing: kv})
	if err != nil {
		tb.Fatal(err)
	}
	base, err := AccountBase(n)
	if err != nil {
		tb.Fatal(err)
	}
	if err := SeedGenesis(db, base); err != nil {
		tb.Fatal(err)
	}
}

// openStore opens a fresh store in a new directory under tb's.
func openStore(tb testing.TB) *kvstore.DB {
	kv, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(tb.TempDir(), "store")})
	if err != nil {
		tb.Fatal(err)
	}
	return kv
}

// TestSeedGenesisAllocatesNoObjectPerKey pins the boot cost of the
// benchmark's 100 000-account genesis: built and seeded, in memory and as a
// store's first snapshot, it takes a fixed number of allocations — arenas,
// indexes, the snapshot's one record buffer — not one or more per key.
func TestSeedGenesisAllocatesNoObjectPerKey(t *testing.T) {
	const n = 100000
	for _, store := range []bool{false, true} {
		allocs := testing.AllocsPerRun(2, func() {
			var kv *kvstore.DB
			if store {
				kv = openStore(t)
				defer kv.Close()
			}
			seedAccounts(t, n, kv)
		})
		if allocs > 300 {
			t.Errorf("store %v: seeding %d accounts made %.0f allocations", store, n, allocs)
		}
	}
}

// BenchmarkSeedGenesis times building the 100 000-account genesis base and
// installing it into a fresh state database, in memory and as a fresh
// store's first snapshot (opening and closing the store are not timed); the
// base's build alone; and a state database reopened over a store holding
// that genesis.
func BenchmarkSeedGenesis(b *testing.B) {
	const n = 100000
	b.Run("memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedAccounts(b, n, nil)
		}
	})
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			kv := openStore(b)
			b.StartTimer()
			seedAccounts(b, n, kv)
			b.StopTimer()
			kv.Close()
			b.StartTimer()
		}
	})
	b.Run("base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AccountBase(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reopen", func(b *testing.B) {
		kv := openStore(b)
		defer kv.Close()
		seedAccounts(b, n, kv)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db, err := statedb.New(statedb.Options{Backing: kv})
			if err != nil {
				b.Fatal(err)
			}
			if db.Height() != 0 || !db.Seeded() {
				b.Fatal("the reopened store holds no genesis")
			}
		}
	})
}
