package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

func TestNodeHeapOrdersByArrival(t *testing.T) {
	prop := func(arrivals []uint32) bool {
		var h nodeHeap
		for _, a := range arrivals {
			h.push(&txNode{arrival: uint64(a)})
		}
		prev := uint64(0)
		for h.len() > 0 {
			n := h.pop()
			if n.arrival < prev {
				return false
			}
			prev = n.arrival
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrderRespectsEdgesProperty(t *testing.T) {
	// Random DAGs built like the manager builds them (edges only from
	// earlier-arrival to later-arrival nodes or vice versa through explicit
	// succ links): the topological order must respect every edge.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := newGraph(1<<10, 3)
		n := 20 + rng.Intn(30)
		nodes := make([]*txNode, n)
		for i := range nodes {
			nodes[i] = g.newNode(TxID(fmt.Sprintf("n%d", i)), seqno.Snapshot(0), nil, nil)
			g.nodes[nodes[i].id] = nodes[i]
		}
		// Random forward edges (i -> j with i < j keeps it acyclic).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					nodes[i].succ[nodes[j]] = struct{}{}
				}
			}
		}
		order := g.topoOrder()
		pos := map[*txNode]int{}
		for i, nd := range order {
			pos[nd] = i
		}
		for _, u := range nodes {
			for v := range u.succ {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return len(order) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildReachabilityMatchesExactClosure(t *testing.T) {
	// After a rebuild, every true ancestor must be reported reachable (no
	// false negatives vs an exact closure computed independently).
	rng := rand.New(rand.NewSource(7))
	g := newGraph(1<<12, 4)
	const n = 40
	nodes := make([]*txNode, n)
	for i := range nodes {
		nodes[i] = g.newNode(TxID(fmt.Sprintf("n%d", i)), seqno.Snapshot(0), nil, nil)
		g.nodes[nodes[i].id] = nodes[i]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) == 0 {
				nodes[i].succ[nodes[j]] = struct{}{}
			}
		}
	}
	g.rebuildReachability()
	// Exact ancestor closure by DFS over reversed edges.
	ancestors := make([]map[int]bool, n)
	for i := range ancestors {
		ancestors[i] = map[int]bool{i: true}
	}
	for i := 0; i < n; i++ { // topological: edges only go forward
		for s := range nodes[i].succ {
			var si int
			fmt.Sscanf(string(s.id), "n%d", &si)
			for a := range ancestors[i] {
				ancestors[si][a] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		for a := range ancestors[i] {
			if !nodes[i].anti.MayContain(string(nodes[a].id)) {
				t.Fatalf("rebuild lost ancestor n%d of n%d", a, i)
			}
		}
	}
}

func TestPruneRemovesOnlyOldCommitted(t *testing.T) {
	g := newGraph(1<<10, 3)
	mk := func(id string, committed bool, age uint64) *txNode {
		n := g.newNode(TxID(id), seqno.Snapshot(0), nil, nil)
		n.committed = committed
		n.age = age
		g.nodes[n.id] = n
		return n
	}
	old := mk("old", true, 3)
	fresh := mk("fresh", true, 9)
	pending := mk("pending", false, 1) // pending never pruned
	fresh.succ[old] = struct{}{}       // dangling link must be cleaned

	pruned := g.prune(5)
	if pruned != 1 {
		t.Fatalf("pruned %d, want 1", pruned)
	}
	if _, ok := g.lookup("old"); ok {
		t.Error("old committed node survived")
	}
	if _, ok := g.lookup("fresh"); !ok {
		t.Error("fresh node pruned")
	}
	if _, ok := g.lookup("pending"); !ok {
		t.Error("pending node pruned")
	}
	if len(fresh.succ) != 0 {
		t.Error("dangling successor link not cleaned")
	}
	_ = pending
}

func TestHasCycleDirectAndTransitive(t *testing.T) {
	g := newGraph(1<<10, 3)
	a := g.newNode("a", seqno.Snapshot(0), nil, nil)
	b := g.newNode("b", seqno.Snapshot(0), nil, nil)
	c := g.newNode("c", seqno.Snapshot(0), nil, nil)
	g.nodes["a"], g.nodes["b"], g.nodes["c"] = a, b, c
	// a -> b -> c (installed via insert to maintain filters).
	g.insert(a, nil, map[*txNode]struct{}{}, 1)
	g.insert(b, map[*txNode]struct{}{a: {}}, nil, 1)
	g.insert(c, map[*txNode]struct{}{b: {}}, nil, 1)

	// New node with pred=c and succ=a would close a 4-cycle: a->b->c->new->a.
	if !hasCycle(map[*txNode]struct{}{c: {}}, map[*txNode]struct{}{a: {}}) {
		t.Error("transitive cycle not detected")
	}
	// pred=a, succ=c is fine (same direction as existing edges).
	if hasCycle(map[*txNode]struct{}{a: {}}, map[*txNode]struct{}{c: {}}) {
		t.Error("false cycle on forward edges (possible but should not happen with these filters)")
	}
	// Same node as pred and succ: 2-cycle.
	if !hasCycle(map[*txNode]struct{}{b: {}}, map[*txNode]struct{}{b: {}}) {
		t.Error("self pred/succ cycle not detected")
	}
	// Empty sets never cycle.
	if hasCycle(nil, map[*txNode]struct{}{a: {}}) || hasCycle(map[*txNode]struct{}{a: {}}, nil) {
		t.Error("cycle with empty side")
	}
}

func TestManagerStatsTimersAdvance(t *testing.T) {
	m := NewManager(Options{})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i%5)
		if _, err := m.OnArrival(TxID(fmt.Sprintf("t%d", i)), 0, []string{key}, []string{key + "w"}); err != nil {
			t.Fatal(err)
		}
	}
	m.OnBlockFormation()
	st := m.Stats()
	if st.IdentifyConflictNS <= 0 || st.UpdateGraphNS <= 0 || st.IndexRecordNS <= 0 {
		t.Errorf("arrival timers did not advance: %+v", st)
	}
	if st.ComputeOrderNS <= 0 || st.PersistNS <= 0 {
		t.Errorf("formation timers did not advance: %+v", st)
	}
	if st.MeanHops() < 0 {
		t.Error("negative hops")
	}
}

func TestDifferentialPruningNeverMissesCycles(t *testing.T) {
	// Aggressive pruning (tiny max_span) vs no pruning (huge max_span) on
	// the same stream: the pruned manager may abort MORE (staleness) but
	// every transaction it ACCEPTS must also be serializable — checked via
	// the oracle on its commits.
	for seed := int64(0); seed < 5; seed++ {
		committed := runRandomWorkload(t, seed, 500, 6, 17, Options{MaxSpan: 2, RelayBlocks: 2})
		if ok, witness := serializabilityOracle(committed); !ok {
			t.Fatalf("seed %d: aggressive pruning admitted a cycle: %v", seed, witness)
		}
	}
}

var _ = protocol.Valid // keep protocol imported for the helpers above
