package statedb

import (
	"fmt"
	"math/rand"
	"testing"

	"fabricsharp/internal/protocol"
)

// BenchmarkStateGet reads 100 000 accounts, shuffled, from a database that
// holds them as its base and from one that holds them in histories (every
// key written by a block): a base hit against a history hit.
func BenchmarkStateGet(b *testing.B) {
	const n = 100000
	writes := make([]protocol.WriteItem, n)
	keys := make([]string, n)
	for i := range writes {
		keys[i] = fmt.Sprintf("acct:%d", i)
		writes[i] = protocol.WriteItem{Key: keys[i], Value: []byte("1000")}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	based, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := seedWrites(based, writes); err != nil {
		b.Fatal(err)
	}
	histories, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := histories.ApplyBlock(1, []BlockWrites{{Pos: 1, Writes: writes}}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		db   *DB
	}{{"base", based}, {"history", histories}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := bc.db.Get(keys[i%n]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
