package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/intern"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/workload"
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

// hotStream is the cluster benchmark's solo-hot traffic at the Manager:
// msmallbank over 10 000 accounts with hot 0.5/0.5, each transaction
// endorsed at the tip or (one in four) a block behind it, and the arrivals
// Algorithm 2 rejects for a cycle deferred to the block's tail and fed back
// through CommitTail after the formation, as a rescue-enabled orderer does.
type hotStream struct {
	m   *Manager
	gen *workload.ModifiedSmallbank
	rng *rand.Rand
	seq int
}

type hotTx struct {
	id            TxID
	reads, writes []string
}

func newHotStream(tb testing.TB, seed int64) *hotStream {
	rng := rand.New(rand.NewSource(seed))
	gen, err := workload.NewModifiedSmallbank(rng, 10000, 0.5, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return &hotStream{m: NewManager(Options{}), gen: gen, rng: rng}
}

// arrive runs n arrivals, calling check (when set) with each transaction's
// write keys just before it arrives, and returns the deferred ones.
func (h *hotStream) arrive(tb testing.TB, n int, check func(writes []string)) []hotTx {
	var deferred []hotTx
	for i := 0; i < n; i++ {
		t := hotTx{id: TxID(fmt.Sprintf("t%d", h.seq))}
		h.seq++
		for j, a := range h.gen.Next().Args {
			if j < 4 {
				t.reads = append(t.reads, chaincode.AccountKey(a))
			} else {
				t.writes = append(t.writes, chaincode.AccountKey(a))
			}
		}
		snap := h.m.NextBlock() - 1
		if snap > 0 && h.rng.Intn(4) == 0 {
			snap--
		}
		if check != nil {
			check(t.writes)
		}
		code, err := h.m.OnArrival(t.id, snap, t.reads, t.writes)
		if err != nil {
			tb.Fatal(err)
		}
		if code == protocol.AbortCycle {
			deferred = append(deferred, t)
		}
	}
	return deferred
}

// cut forms the block and commits the deferred transactions in its tail,
// returning the time CommitTail took.
func (h *hotStream) cut(deferred []hotTx) (tailNS int64) {
	ids, block := h.m.OnBlockFormation()
	if len(ids) == 0 {
		h.m.SealBlock()
	}
	t0 := metrics.StartWatch()
	for i, t := range deferred {
		h.m.CommitTail(t.id, seqno.Commit(block, uint32(len(ids)+i+1)), t.reads, t.writes)
	}
	return t0.ElapsedNS()
}

// BenchmarkSharpFormationHot prices a Fabric# cut's scheduler share on the
// graph the solo-hot cluster workload actually builds (~90 transactions per
// block, every hot-key reader retained for max_span blocks, the deferred
// tail fed back), where BenchmarkManagerArrival* and the layer table's
// formation row model a uniform one. One op is one block: formation
// (Algorithm 3 with Algorithm 5 and the prune) plus the tail's CommitTail;
// arrivals run with the timer stopped. Reported beside ns/op: live edges per
// node and live nodes at formation, and the split of a block into topoOrder,
// restoreWW, prune and CommitTail.
func BenchmarkSharpFormationHot(b *testing.B) {
	const perBlock, warm = 90, 40
	h := newHotStream(b, 1)
	for i := 0; i < warm; i++ {
		h.cut(h.arrive(b, perBlock, nil))
	}
	before := h.m.Stats()
	var edges, nodes int
	var tailNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		deferred := h.arrive(b, perBlock, nil)
		for _, n := range h.m.g.nodes {
			edges += len(n.succ)
		}
		nodes += len(h.m.g.nodes)
		b.StartTimer()
		tailNS += h.cut(deferred)
	}
	after := h.m.Stats()
	per := func(ns int64) float64 { return float64(ns) / float64(b.N) }
	b.ReportMetric(float64(edges)/float64(nodes), "edges/node")
	b.ReportMetric(float64(nodes)/float64(b.N), "live-nodes")
	b.ReportMetric(per(after.ComputeOrderNS-before.ComputeOrderNS), "topo-ns/block")
	b.ReportMetric(per(after.RestoreWWNS-before.RestoreWWNS), "restoreww-ns/block")
	b.ReportMetric(per(after.PruneNS-before.PruneNS), "prune-ns/block")
	b.ReportMetric(per(tailNS), "committail-ns/block")
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
