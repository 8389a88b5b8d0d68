package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
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

// BenchmarkSeedGenesis times installing the 100 000-account genesis into a
// fresh state database, in memory and on a store (the write set is built
// once, outside the timing).
func BenchmarkSeedGenesis(b *testing.B) {
	writes := AccountGenesis(100000)
	b.Run("memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := statedb.New(statedb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := SeedGenesis(db, writes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			kv, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(b.TempDir(), fmt.Sprint(i))})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			db, err := statedb.New(statedb.Options{Backing: kv})
			if err != nil {
				b.Fatal(err)
			}
			if err := SeedGenesis(db, writes); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			kv.Close()
			b.StartTimer()
		}
	})
}
