package core

import (
	"fmt"
	"testing"

	"fabricsharp/internal/intern"
	"fabricsharp/internal/seqno"
)

// benchArrivals drives the manager with a contended synthetic stream,
// forming a block every blockSize arrivals.
func benchArrivals(b *testing.B, opts Options, keySpace, blockSize int) {
	m := NewManager(opts)
	height := uint64(0)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := keys[(i*7)%keySpace]
		w := keys[(i*3)%keySpace]
		if _, err := m.OnArrival(TxID(fmt.Sprintf("t%d", i)), height, []string{r}, []string{w}); err != nil {
			b.Fatal(err)
		}
		if m.PendingCount() >= blockSize {
			ids, block := m.OnBlockFormation()
			if len(ids) > 0 {
				height = block
			}
		}
	}
}

func BenchmarkManagerArrivalLowContention(b *testing.B) {
	benchArrivals(b, Options{}, 10000, 100)
}

func BenchmarkManagerArrivalHighContention(b *testing.B) {
	benchArrivals(b, Options{}, 20, 100)
}

func BenchmarkManagerLargeBlocks(b *testing.B) {
	benchArrivals(b, Options{}, 200, 500)
}

func BenchmarkMemIndexPutAfter(b *testing.B) {
	keys := intern.NewTable()
	idx := NewMemIndex()
	ks := make([]intern.Key, 64)
	for i := range ks {
		ks[i] = keys.Intern(fmt.Sprintf("k%d", i))
	}
	var buf []TxID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ks[i%64]
		seq := seqno.Commit(uint64(i/100+1), uint32(i%100+1))
		idx.Put(key, seq, TxID(fmt.Sprintf("t%d", i)))
		buf = idx.After(buf[:0], key, seqno.Snapshot(uint64(i/100)))
		if i%1000 == 999 {
			idx.PruneBefore(uint64(i/100) - 5)
		}
	}
}

func BenchmarkCycleCheck(b *testing.B) {
	// A realistic-size neighborhood test: the cost the orderer pays per
	// arrival on a contended key.
	g := newGraph(1<<14, 4)
	var nodes []*txNode
	for i := 0; i < 50; i++ {
		n := g.newNode(TxID(fmt.Sprintf("n%d", i)), seqno.Snapshot(0), nil, nil)
		g.nodes[n.id] = n
		if i > 0 {
			g.insert(n, map[*txNode]struct{}{nodes[i-1]: {}}, nil, 1)
		}
		nodes = append(nodes, n)
	}
	pred := map[*txNode]struct{}{nodes[45]: {}}
	succ := map[*txNode]struct{}{nodes[5]: {}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !hasCycle(pred, succ) {
			b.Fatal("expected cycle")
		}
	}
}
