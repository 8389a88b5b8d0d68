package core

import (
	"sort"
	"sync"

	"fabricsharp/internal/bloom"
	"fabricsharp/internal/seqno"
)

// txNode is one transaction in the dependency graph G. Edges are stored as
// explicit successor links (p.succ holds every node depending on p), and the
// full ancestor closure is summarized in the `anti` bloom filter
// (anti_reachable in the paper: the set of transactions that can reach this
// node, plus the node itself).
type txNode struct {
	id        TxID
	arrival   uint64 // monotone arrival index: the deterministic tie-break
	startTS   seqno.Seq
	endTS     seqno.Seq // zero until committed
	committed bool
	pruned    bool
	// readKeys and writeKeys are the keys a pending node accesses; commit
	// drops them (nothing reads a committed node's keys).
	readKeys  []keyRef
	writeKeys []keyRef
	succ      map[*txNode]struct{}
	anti      *bloom.Filter
	age       uint64 // block recency of the node's newest committed ancestor (incl. itself)

	// idPos caches the node id's bloom bit positions (computed once at
	// admission, reused by every reachability probe instead of re-hashing
	// string(id)). idPosBuf is its inline backing array for the default
	// filter geometries, so admission allocates nothing extra.
	idPos    []uint64
	idPosBuf [8]uint64

	// Single-goroutine traversal scratch (the Manager serializes all graph
	// access): stamp marks visited nodes per graph epoch, indeg and pos are
	// the topological sort's working state.
	stamp uint64
	indeg int
	pos   int
}

// graph is the dependency graph with its reachability machinery.
type graph struct {
	nodes       map[TxID]*txNode
	bloomBits   uint64
	bloomHashes int
	arrivals    uint64

	// filterPool and succPool recycle the per-node ancestor filters (2 KiB
	// of bits at the default geometry) and successor maps across the prune
	// horizon — the dominant allocation of the arrival path before pooling.
	filterPool sync.Pool
	succPool   sync.Pool

	// epoch-stamp visited marking plus reusable traversal scratch.
	epoch    uint64
	stack    []*txNode
	topoAll  []*txNode
	topoOut  []*txNode
	topoHeap nodeHeap
}

func newGraph(bloomBits uint64, bloomHashes int) *graph {
	g := &graph{
		nodes:       make(map[TxID]*txNode),
		bloomBits:   bloomBits,
		bloomHashes: bloomHashes,
	}
	g.filterPool.New = func() interface{} { return bloom.New(bloomBits, bloomHashes) }
	g.succPool.New = func() interface{} { return make(map[*txNode]struct{}) }
	return g
}

// visit returns false if n was already visited in the current epoch, marking
// it otherwise. Callers bump the epoch (nextEpoch) once per traversal.
func (g *graph) visit(n *txNode) bool {
	if n.stamp == g.epoch {
		return false
	}
	n.stamp = g.epoch
	return true
}

func (g *graph) nextEpoch() { g.epoch++ }

func (g *graph) newNode(id TxID, startTS seqno.Seq, readKeys, writeKeys []keyRef) *txNode {
	g.arrivals++
	n := &txNode{
		id:        id,
		arrival:   g.arrivals,
		startTS:   startTS,
		readKeys:  append([]keyRef(nil), readKeys...),
		writeKeys: append([]keyRef(nil), writeKeys...),
		succ:      g.succPool.Get().(map[*txNode]struct{}),
		anti:      g.filterPool.Get().(*bloom.Filter),
	}
	n.idPos = n.anti.Positions(n.idPosBuf[:0], string(id))
	n.anti.AddPositions(n.idPos)
	return n
}

// release returns a pruned node's pooled resources. The filter and map are
// exclusively owned by the node (unions copy bits, edges were unlinked), so
// recycling them is safe.
func (g *graph) release(n *txNode) {
	n.anti.Reset()
	g.filterPool.Put(n.anti)
	n.anti = nil
	clear(n.succ)
	g.succPool.Put(n.succ)
	n.succ = nil
}

// lookup resolves an index hit to a live node; pruned or unknown
// transactions are beyond the reachability horizon and are safely ignored
// (Section 4.6's age argument).
func (g *graph) lookup(id TxID) (*txNode, bool) {
	n, ok := g.nodes[id]
	if !ok || n.pruned {
		return nil, false
	}
	return n, true
}

// hasCycle implements the arrival-time reorderability test of Algorithm 2:
// inserting txn with the given predecessors and successors closes a cycle
// iff some successor can already reach some predecessor. Bloom false
// positives report a cycle where none exists — a preventive abort, never a
// missed cycle.
func hasCycle(pred, succ map[*txNode]struct{}) bool {
	if len(pred) == 0 || len(succ) == 0 {
		return false
	}
	//sharp:orderinvariant existential probe: returns whether any (p,s) pair hits; visit order cannot change the answer
	for p := range pred {
		//sharp:orderinvariant existential probe: returns whether any (p,s) pair hits; visit order cannot change the answer
		for s := range succ {
			if p == s {
				return true
			}
			// anti(p) = {ancestors of p} ∪ {p}; a hit means s -> ... -> p.
			if p.anti.MayContainPositions(s.idPos) {
				return true
			}
		}
	}
	return false
}

// insert wires txn into the graph per Algorithm 4: predecessor edges are
// created, the ancestor filter is assembled from the predecessors', and the
// filter (which includes txn itself) is pushed to every node reachable from
// txn's successors. nextBlock is M, the presumptive commit block, used as
// the age hint. It returns the number of nodes traversed (the "# of hops"
// statistic of Figure 13).
func (g *graph) insert(txn *txNode, pred, succ map[*txNode]struct{}, nextBlock uint64) (hops int) {
	//sharp:orderinvariant idempotent set insert plus bloom union (bitwise OR) per predecessor; both commute
	for p := range pred {
		p.succ[txn] = struct{}{}
		txn.anti.Union(p.anti)
	}
	for s := range succ {
		txn.succ[s] = struct{}{}
	}
	txn.age = nextBlock
	g.nodes[txn.id] = txn

	// Push txn's ancestor set (which includes txn) to all descendants and
	// refresh their age: txn is a new, soon-to-commit ancestor of each.
	g.nextEpoch()
	g.visit(txn)
	stack := g.stack[:0]
	//sharp:orderinvariant DFS seed order; the walk effects (visited-set, bloom union, age max) are order-insensitive
	for s := range succ {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.pruned || !g.visit(n) {
			continue
		}
		hops++
		n.anti.Union(txn.anti)
		if n.age < nextBlock {
			n.age = nextBlock
		}
		//sharp:orderinvariant DFS push order; visited-set, bloom-union (bitwise OR), and age-max effects all commute
		for s := range n.succ {
			stack = append(stack, s)
		}
	}
	g.stack = stack[:0]
	return hops
}

// topoOrder returns every live node in a deterministic topological order
// (Kahn's algorithm with arrival-index tie-breaking). It is used both for
// block formation (the pending sub-sequence of this order is the commit
// order) and for the reachability rebuilds. The returned slice is scratch
// owned by the graph — it is valid until the next topoOrder call.
func (g *graph) topoOrder() []*txNode {
	all := g.topoAll[:0]
	//sharp:orderinvariant collection order is washed: zero-indegree seeds enter an arrival-index min-heap and emission follows heap order alone
	for _, n := range g.nodes {
		if n.pruned {
			continue
		}
		n.indeg = 0
		all = append(all, n)
	}
	for _, n := range all {
		for s := range n.succ {
			if !s.pruned {
				s.indeg++
			}
		}
	}
	// Ready min-heap by arrival index, seeded with all zero-indegree nodes.
	ready := &g.topoHeap
	ready.reset()
	for _, n := range all {
		if n.indeg == 0 {
			ready.push(n)
		}
	}
	out := g.topoOut[:0]
	for ready.len() > 0 {
		n := ready.pop()
		out = append(out, n)
		//sharp:orderinvariant indegree decrements commute; emission order is fixed by the arrival-index min-heap, not visit order
		for s := range n.succ {
			if s.pruned {
				continue
			}
			s.indeg--
			if s.indeg == 0 {
				ready.push(s)
			}
		}
	}
	if len(out) != len(all) {
		// The arrival-time cycle test makes this unreachable; failing loud
		// beats emitting an unserializable block.
		panic("core: dependency graph contains a cycle")
	}
	g.topoAll = all
	g.topoOut = out
	return out
}

// rebuildReachability recomputes every live node's ancestor filter from the
// explicit edges (reset filters in place, forward propagation in topological
// order). This is the relay mechanism of Section 4.4: periodically resetting
// the filters bounds their fill ratio — and with it the false-positive rate —
// without ever losing a true member.
func (g *graph) rebuildReachability() {
	order := g.topoOrder()
	for _, n := range order {
		n.anti.Reset()
		n.anti.AddPositions(n.idPos)
	}
	for _, n := range order {
		//sharp:orderinvariant bloom union is bitwise OR; successor visit order cannot change the resulting filters
		for s := range n.succ {
			if !s.pruned {
				s.anti.Union(n.anti)
			}
		}
	}
}

// bumpCommitted refreshes ages after the given nodes committed in block B:
// each is now a committed ancestor of everything it reaches, so descendants'
// ages rise to B. The arrival-time hint may have underestimated (the
// transaction might have been deferred to a later block); re-bumping at
// commit keeps pruning strictly conservative.
func (g *graph) bumpCommitted(committed []*txNode, block uint64) {
	g.nextEpoch()
	stack := g.stack[:0]
	stack = append(stack, committed...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.pruned || !g.visit(n) {
			continue
		}
		if n.age < block {
			n.age = block
		}
		//sharp:orderinvariant DFS push order; visited-set marking and age-max both commute
		for s := range n.succ {
			stack = append(stack, s)
		}
	}
	g.stack = stack[:0]
}

// prune removes committed nodes whose age fell below the horizon: no future
// transaction can be part of a cycle through them (Section 4.6). Pending
// nodes are never pruned. It returns the number of pruned nodes.
func (g *graph) prune(horizon uint64) int {
	doomed := g.stack[:0]
	//sharp:orderinvariant doomed-collection order only affects pool recycling; graph deletions are keyed by unique id and commute
	for id, n := range g.nodes {
		if !n.committed || n.pruned {
			continue
		}
		if n.age < horizon {
			n.pruned = true
			delete(g.nodes, id)
			doomed = append(doomed, n)
		}
	}
	if len(doomed) > 0 {
		// Drop dangling successor links so traversals stay tight, then
		// recycle the pruned nodes' filters and maps (nothing else can
		// reach them: lookups consult g.nodes, and every traversal guards
		// on n.pruned before touching a node).
		//sharp:orderinvariant per-node successor-set subtraction; each node is pruned independently and deletions commute
		for _, n := range g.nodes {
			for s := range n.succ {
				if s.pruned {
					delete(n.succ, s)
				}
			}
		}
		for _, n := range doomed {
			g.release(n)
		}
	}
	pruned := len(doomed)
	g.stack = doomed[:0]
	return pruned
}

// size returns the number of live nodes.
func (g *graph) size() int { return len(g.nodes) }

// nodeHeap is a minimal min-heap of nodes ordered by arrival index; it keeps
// the topological sort deterministic across replicas. The backing slice is
// reused across sorts.
type nodeHeap struct{ ns []*txNode }

func (h *nodeHeap) len() int { return len(h.ns) }

func (h *nodeHeap) reset() { h.ns = h.ns[:0] }

func (h *nodeHeap) push(n *txNode) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.ns[parent].arrival <= h.ns[i].arrival {
			break
		}
		h.ns[parent], h.ns[i] = h.ns[i], h.ns[parent]
		i = parent
	}
}

func (h *nodeHeap) pop() *txNode {
	top := h.ns[0]
	last := len(h.ns) - 1
	h.ns[0] = h.ns[last]
	h.ns = h.ns[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.ns) && h.ns[l].arrival < h.ns[smallest].arrival {
			smallest = l
		}
		if r < len(h.ns) && h.ns[r].arrival < h.ns[smallest].arrival {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.ns[i], h.ns[smallest] = h.ns[smallest], h.ns[i]
		i = smallest
	}
	return top
}

// restoreWW implements Algorithm 5: after the commit order has been fixed,
// write-write dependencies between pending transactions are installed so
// that future cycle checks see them. groups holds, per contended key (in a
// deterministic key order chosen by the Manager), the key's pending writers
// sorted by commit position; adjacent writer pairs not already connected
// receive an edge and the downstream reachability is refreshed in one
// topologically ordered pass from the collected heads.
//
// order is the formation's topological order of the whole graph, reused
// instead of sorting it a second time: every edge added here joins two
// pending writers in increasing commit position, and positions follow that
// order, so it stays topological. Any topological order gives the same
// filters (each node's is final before its successors consume it).
func (g *graph) restoreWW(groups [][]*txNode, order []*txNode) {
	var heads []*txNode
	g.nextEpoch()
	headEpoch := g.epoch
	for _, writers := range groups {
		for i := 0; i+1 < len(writers); i++ {
			t1, t2 := writers[i], writers[i+1]
			if t2.anti.MayContainPositions(t1.idPos) {
				// Already connected (possibly via another key): the edge is
				// implicit, as with Txn0 -> Txn3 in Figure 9.
				continue
			}
			t1.succ[t2] = struct{}{}
			t2.anti.Union(t1.anti)
			if t2.stamp != headEpoch {
				t2.stamp = headEpoch
				heads = append(heads, t2)
			}
		}
	}
	if len(heads) == 0 {
		return
	}
	// Propagate from the heads in topological order so each node's filter
	// is final before its successors consume it (Figure 9's single-pass
	// iteration). Mark everything reachable from a head, then walk the
	// global topological order unioning along marked nodes' edges.
	g.nextEpoch()
	stack := g.stack[:0]
	stack = append(stack, heads...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.pruned || !g.visit(n) {
			continue
		}
		//sharp:orderinvariant DFS push order; the walk only marks a visited-set, which is order-insensitive
		for s := range n.succ {
			stack = append(stack, s)
		}
	}
	g.stack = stack[:0]
	reachEpoch := g.epoch
	for _, n := range order {
		if n.stamp != reachEpoch {
			continue
		}
		//sharp:orderinvariant bloom union is bitwise OR; successor visit order cannot change the merged filter
		for s := range n.succ {
			if !s.pruned {
				s.anti.Union(n.anti)
			}
		}
	}
}

// sortWriters orders one key's pending writers by commit position (set by
// the formation's topological pass).
func sortWriters(writers []*txNode) {
	sort.Slice(writers, func(i, j int) bool { return writers[i].pos < writers[j].pos })
}
