package core

import (
	"fmt"
	"sort"

	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// Options configures a Manager. The zero value is usable; unset fields get
// the paper's defaults.
type Options struct {
	// MaxSpan is the maximum block span of a transaction (Section 4.6);
	// snapshots at or below nextBlock - MaxSpan are aborted as stale.
	// Default 10 (the paper's fixed setting).
	MaxSpan uint64
	// BloomBits and BloomHashes size every reachability filter.
	// Defaults: 1<<14 bits, 4 hashes.
	BloomBits   uint64
	BloomHashes int
	// RelayBlocks is the reachability-filter relay period in blocks
	// (Section 4.4): filters are rebuilt from the explicit edges every
	// RelayBlocks formations, bounding their false-positive rate.
	// Default 2*MaxSpan.
	RelayBlocks uint64
}

func (o Options) withDefaults() Options {
	if o.MaxSpan == 0 {
		o.MaxSpan = 10
	}
	if o.BloomBits == 0 {
		o.BloomBits = 1 << 14
	}
	if o.BloomHashes == 0 {
		o.BloomHashes = 4
	}
	if o.RelayBlocks == 0 {
		o.RelayBlocks = 2 * o.MaxSpan
	}
	return o
}

// Stats aggregates the measurements the evaluation reports: abort taxonomy,
// reachability traversal hops and block spans (Figure 13), the arrival
// processing breakdown (Figure 12, right) and the reordering latency
// breakdown (Figure 11, right).
type Stats struct {
	Arrivals       uint64
	Accepted       uint64
	AbortCycle     uint64
	AbortStale     uint64
	AbortDuplicate uint64

	Formations   uint64
	Committed    uint64
	PrunedNodes  uint64
	MaxGraphSize int

	Hops      uint64 // nodes traversed by reachability updates
	SpanSum   uint64 // sum of committed transactions' block spans
	SpanCount uint64

	// Arrival-time breakdown (Figure 12): conflict identification,
	// graph/reachability update, pending-index recording.
	IdentifyConflictNS int64
	UpdateGraphNS      int64
	IndexRecordNS      int64

	// Formation-time breakdown (Figure 11): commit-order computation,
	// ww restoration, persisting to the committed indices, graph pruning.
	ComputeOrderNS int64
	RestoreWWNS    int64
	PersistNS      int64
	PruneNS        int64
}

// MeanSpan returns the average block span of committed transactions.
func (s Stats) MeanSpan() float64 {
	if s.SpanCount == 0 {
		return 0
	}
	return float64(s.SpanSum) / float64(s.SpanCount)
}

// MeanHops returns the average reachability-update traversal per arrival.
func (s Stats) MeanHops() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Arrivals)
}

// Manager is the fine-grained concurrency control of Section 3.4, replicated
// inside every orderer. It is single-goroutine by design — the consensus
// stream is already serialized when it reaches the reordering step — and the
// caller provides that serialization.
type Manager struct {
	opts Options
	g    *graph
	// keys holds the CW, CR, PW and PR entries of every key with retained
	// state; pending is the pending transaction set P.
	keys    MemIndex[*txNode]
	pending []*txNode
	// nextBlock is M, the number of the next block to be committed.
	nextBlock uint64
	stats     Stats

	// Arrival/formation scratch, reused to keep the hot path allocation-
	// free: the arrival's keys, the pred/succ working sets of Algorithm 2,
	// an index-query buffer, and the formation's contended-key collector.
	rbuf, wbuf []keyRef
	predSet    map[*txNode]struct{}
	succSet    map[*txNode]struct{}
	idbuf      []TxID
	orderBuf   []*txNode
	wwKeys     []keyRef
	wwGroups   [][]*txNode
}

// keyState is one record key's state in the Manager's index.
type keyState = KeyState[*txNode]

// keyRef is a key an arrival accesses: its state, and its string, which
// orders Algorithm 5's contended keys.
type keyRef struct {
	key string
	*keyState
}

// NewManager creates a Manager whose first formed block is number 1
// (block 0 being genesis).
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:      opts,
		g:         newGraph(opts.BloomBits, opts.BloomHashes),
		keys:      MemIndex[*txNode]{},
		nextBlock: 1,
		predSet:   make(map[*txNode]struct{}),
		succSet:   make(map[*txNode]struct{}),
	}
}

// ResidentKeys returns the number of record keys with retained state: a
// CW or CR entry above the horizon, or a pending writer or reader.
func (m *Manager) ResidentKeys() int { return len(m.keys) }

// NextBlock returns M, the number of the block the next formation will seal.
func (m *Manager) NextBlock() uint64 { return m.nextBlock }

// PendingCount returns |P|.
func (m *Manager) PendingCount() int { return len(m.pending) }

// GraphSize returns the number of live nodes in G.
func (m *Manager) GraphSize() int { return m.g.size() }

// Stats returns a snapshot of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// horizon returns H = M - max_span, and whether a horizon exists yet.
func (m *Manager) horizon() (uint64, bool) {
	if m.nextBlock <= m.opts.MaxSpan {
		return 0, false
	}
	return m.nextBlock - m.opts.MaxSpan, true
}

// lookup appends every key with its state to dst: one map lookup per key
// serves all four indices.
func (m *Manager) lookup(dst []keyRef, keys []string) []keyRef {
	for _, k := range keys {
		dst = append(dst, keyRef{k, m.keys.Get(k)})
	}
	return dst
}

// OnArrival is Algorithm 2: it runs when the consensus hands the orderer a
// transaction, decides reorderability, and either admits the transaction to
// the pending set or drops it. The returned code is protocol.Valid on
// admission or one of the early-abort codes.
//
// snapshotBlock is the block the transaction simulated against (Algorithm 1)
// and must be below NextBlock. readKeys and writeKeys must each be
// duplicate-free (protocol.RWSet.ReadKeys/WriteKeys guarantee this).
func (m *Manager) OnArrival(id TxID, snapshotBlock uint64, readKeys, writeKeys []string) (protocol.ValidationCode, error) {
	if snapshotBlock >= m.nextBlock {
		// Contract violation, not an arrival: counting it would skew every
		// per-arrival denominator (MeanHops, the abort taxonomy) by calls
		// that never entered Algorithm 2.
		return 0, fmt.Errorf("core: transaction %s simulated against future block %d (next block %d)",
			id, snapshotBlock, m.nextBlock)
	}
	m.stats.Arrivals++
	if _, dup := m.g.nodes[id]; dup {
		m.stats.AbortDuplicate++
		return protocol.AbortDuplicate, nil
	}
	if h, ok := m.horizon(); ok && snapshotBlock <= h {
		m.stats.AbortStale++
		return protocol.AbortStaleSnapshot, nil
	}
	startTS := seqno.Snapshot(snapshotBlock)

	m.rbuf = m.lookup(m.rbuf[:0], readKeys)
	m.wbuf = m.lookup(m.wbuf[:0], writeKeys)

	// Phase 1 (Figure 12: "Identify conflict"): resolve the dependency sets
	// of Section 4.3 — everything except c-ww among pending transactions.
	// The working sets are reused scratch; the deferred clear covers every
	// exit path, so an aborted arrival can never leak stale nodes into the
	// next one's analysis.
	t0 := metrics.StartWatch()
	pred, succ := m.predSet, m.succSet
	defer func() {
		clear(pred)
		clear(succ)
	}()
	for _, r := range m.rbuf {
		// anti-rw: committed writers at or after the snapshot, plus pending
		// writers. These must serialize after the new transaction.
		m.idbuf = r.CW.After(m.idbuf[:0], startTS)
		for _, txid := range m.idbuf {
			m.addLive(succ, txid)
		}
		for _, n := range r.PW {
			succ[n] = struct{}{}
		}
		// n-wr: the writer of the version actually read.
		if txid, ok := r.CW.Before(startTS); ok {
			m.addLive(pred, txid)
		}
	}
	for _, w := range m.wbuf {
		m.addWritePreds(pred, w.keyState)
		for _, n := range w.PR {
			pred[n] = struct{}{}
		}
	}
	cyclic := hasCycle(pred, succ)
	m.stats.IdentifyConflictNS += t0.ElapsedNS()

	if cyclic {
		m.stats.AbortCycle++
		return protocol.AbortCycle, nil
	}

	// Phase 2 (Figure 12: "Update graph"): Algorithm 4.
	t1 := metrics.StartWatch()
	node := m.g.newNode(id, startTS, m.rbuf, m.wbuf)
	hops := m.g.insert(node, pred, succ, m.nextBlock)
	m.stats.Hops += uint64(hops)
	m.stats.UpdateGraphNS += t1.ElapsedNS()

	// Phase 3 (Figure 12: "Index record"): register in P, PW, PR.
	t2 := metrics.StartWatch()
	m.pending = append(m.pending, node)
	for _, r := range node.readKeys {
		r.PR = append(r.PR, node)
	}
	for _, w := range node.writeKeys {
		w.PW = append(w.PW, node)
	}
	m.stats.IndexRecordNS += t2.ElapsedNS()

	m.stats.Accepted++
	if n := m.g.size(); n > m.stats.MaxGraphSize {
		m.stats.MaxGraphSize = n
	}
	return protocol.Valid, nil
}

// addLive adds txid's node to set unless it is pruned or unknown.
func (m *Manager) addLive(set map[*txNode]struct{}, txid TxID) {
	if n, ok := m.g.lookup(txid); ok {
		set[n] = struct{}{}
	}
}

// addWritePreds adds the committed predecessors a write of w has: ww from
// the last committed writer Cw of w and rw from the committed readers of w
// whose commit sequence is at or after Cw's — not from every retained reader.
// The edges it leaves out are implied, so every decision is unchanged:
//
//   - Every committed reader R of w that committed before Cw already reaches
//     Cw along live edges: R → Cw was added by Cw's own arrival (R was a
//     committed reader then, linked directly or through the writer before
//     Cw), by R's anti-rw arrival (Cw was a committed or pending writer of a
//     key R read), or by the pending indices (both were pending).
//   - Ages are monotone along edges, so R is pruned no later than Cw: while R
//     is live, so is Cw, and anti(Cw) ⊇ anti(R) bit for bit (every filter
//     update is pushed to all descendants).
//
// Hence hasCycle answers the same for the reduced set, the new node's filter
// — the union over its predecessors — is bit-identical, and so is every
// filter pushed from it. The formation's topological order is unchanged too:
// Kahn's algorithm with an arrival-index min-heap releases a node once all
// its ancestors are emitted, which depends on reachability alone. What falls
// is the edge count: a hot key's readers are linked to its next writer once,
// not to every writer for max_span blocks.
func (m *Manager) addWritePreds(pred map[*txNode]struct{}, w *keyState) {
	var since seqno.Seq
	if txid, seq, ok := w.CW.Last(); ok {
		m.addLive(pred, txid)
		since = seq
	}
	m.idbuf = w.CR.After(m.idbuf[:0], since)
	for _, txid := range m.idbuf {
		m.addLive(pred, txid)
	}
}

// CommitTail is the scheduler feedback for a transaction the orderer deferred
// at arrival and the post-order rescue phase committed at `at`, a position
// after every transaction the formation of that block ordered. Peers commit
// stale-by-version reads on this graph's say-so, so the rescued transaction
// has to enter the committed history like any other: a CW/CR entry at `at`
// and a committed graph node. Its predecessors are Algorithm 2's (the last
// writer of each key read; for each key written, its last writer and the
// readers since — addWritePreds, whose reduction argument covers a rescued
// reader too: it entered CR here before any later writer of its keys
// arrived); its successor set is empty by construction — it read the state
// at its own commit point and nothing is pending at a cut — so inserting it
// can never close a cycle, while every later arrival that read a version it
// overwrote finds the anti-rw edge in CW. readKeys/writeKeys are the
// declared sets, a superset of the re-executed ones (reexec's containment
// rule): extra edges only abort more, never less.
func (m *Manager) CommitTail(id TxID, at seqno.Seq, readKeys, writeKeys []string) {
	m.rbuf = m.lookup(m.rbuf[:0], readKeys)
	m.wbuf = m.lookup(m.wbuf[:0], writeKeys)
	pred := m.predSet
	defer clear(pred)
	for _, r := range m.rbuf {
		if txid, _, ok := r.CW.Last(); ok {
			m.addLive(pred, txid)
		}
	}
	for _, w := range m.wbuf {
		m.addWritePreds(pred, w.keyState)
	}
	node := m.g.newNode(id, at, nil, nil)
	node.endTS, node.committed = at, true
	m.g.insert(node, pred, nil, at.Block)
	for _, w := range m.wbuf {
		w.CW.Put(at, id)
	}
	for _, r := range m.rbuf {
		r.CR.Put(at, id)
	}
	m.stats.Committed++
}

// OnBlockFormation is Algorithm 3: it fixes the commit order of the pending
// transactions (a topological order of G restricted to P), restores ww
// dependencies (Algorithm 5), records the commitments in CW/CR, prunes, and
// empties P. It returns the ordered transaction IDs and the sealed block
// number. With no pending transactions it returns (nil, next block) without
// consuming a block number.
func (m *Manager) OnBlockFormation() ([]TxID, uint64) {
	if len(m.pending) == 0 {
		return nil, m.nextBlock
	}
	block := m.nextBlock
	m.stats.Formations++

	// Compute the commit order (Figure 11: "Compute order").
	t0 := metrics.StartWatch()
	topo := m.g.topoOrder()
	order := m.orderBuf[:0]
	for _, n := range topo {
		if !n.committed {
			n.pos = len(order)
			order = append(order, n)
		}
	}
	for i, n := range order {
		n.endTS = seqno.Commit(block, uint32(i+1))
		n.committed = true
		span := block - n.startTS.SnapshotBlock()
		m.stats.SpanSum += span
		m.stats.SpanCount++
	}
	m.stats.ComputeOrderNS += t0.ElapsedNS()

	// Restore ww dependencies (Figure 11: "Restore ww"): collect the keys
	// with two or more pending writers, order them deterministically by
	// record key, and hand the position-sorted writer groups to the graph.
	t1 := metrics.StartWatch()
	wwKeys := m.wwKeys[:0]
	for _, n := range order {
		for _, w := range n.writeKeys {
			// Every pending writer is in order: collect the key at the first.
			if len(w.PW) >= 2 && w.PW[0] == n {
				wwKeys = append(wwKeys, w)
			}
		}
	}
	sort.Slice(wwKeys, func(i, j int) bool { return wwKeys[i].key < wwKeys[j].key })
	groups := m.wwGroups[:0]
	for _, w := range wwKeys {
		sortWriters(w.PW)
		groups = append(groups, w.PW)
	}
	m.g.restoreWW(groups, topo)
	m.wwKeys = wwKeys
	m.wwGroups = groups
	m.stats.RestoreWWNS += t1.ElapsedNS()

	// Persist commitments to the CW/CR storages (Figure 11: "Persist to
	// storage") and clear the pending indices. A committed node lets go of
	// its key states, which pruning may then delete.
	t2 := metrics.StartWatch()
	ids := make([]TxID, len(order))
	for i, n := range order {
		ids[i] = n.id
		for _, w := range n.writeKeys {
			w.CW.Put(n.endTS, n.id)
			w.PW = w.PW[:0]
		}
		for _, r := range n.readKeys {
			r.CR.Put(n.endTS, n.id)
			r.PR = r.PR[:0]
		}
		n.readKeys, n.writeKeys = nil, nil
	}
	m.pending = m.pending[:0]
	m.g.bumpCommitted(order, block)
	m.orderBuf = order
	m.stats.PersistNS += t2.ElapsedNS()

	m.SealBlock()
	m.stats.Committed += uint64(len(ids))
	return ids, block
}

// SealBlock consumes block number M: prune G and the indices (Figure 11:
// "Prune G"), advance M, relay. OnBlockFormation ends with it; the
// orderer calls it directly for a cut that formed nothing but still seals a
// block — one holding only a deferred tail.
func (m *Manager) SealBlock() {
	block := m.nextBlock
	t3 := metrics.StartWatch()
	m.nextBlock++
	if h, ok := m.horizon(); ok {
		m.stats.PrunedNodes += uint64(m.g.prune(h))
		m.keys.PruneBefore(h)
	}
	if block%m.opts.RelayBlocks == 0 {
		m.g.rebuildReachability()
	}
	m.stats.PruneNS += t3.ElapsedNS()
}

// MinRetainedSnapshot returns the oldest snapshot block a newly arriving
// transaction may still read from; the state database can prune history
// below it (Section 4.2).
func (m *Manager) MinRetainedSnapshot() uint64 {
	if h, ok := m.horizon(); ok {
		return h + 1
	}
	return 0
}
