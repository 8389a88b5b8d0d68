package core

import (
	"fmt"
	"sort"

	"fabricsharp/internal/intern"
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
	// CompactEvery triggers deterministic epoch compaction of the intern
	// table (and every KeyID-indexed structure) after each sealed block
	// whose number is a multiple of it: keys no longer referenced by
	// retained state — CW/CR entries above the Section 4.6 horizon, pending
	// PW/PR writers/readers, live graph nodes — are dropped and the
	// survivors re-assigned dense KeyIDs in old-ID order. Block numbers are
	// a pure function of the consensus stream, so every replica compacts at
	// the same position and produces a bit-identical remapping. 0 (the
	// default) disables compaction: tables stay append-only, the pre-PR-4
	// behavior, appropriate for bounded key universes.
	CompactEvery uint64
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

	// Compactions counts intern-table epoch compactions; CompactedKeys the
	// total KeyIDs dropped by them (the memory a churn workload reclaims).
	Compactions   uint64
	CompactedKeys uint64

	Hops      uint64 // nodes traversed by reachability updates
	SpanSum   uint64 // sum of committed transactions' block spans
	SpanCount uint64

	// Arrival-time breakdown (Figure 12): conflict identification,
	// graph/reachability update, pending-index recording.
	IdentifyConflictNS int64
	UpdateGraphNS      int64
	IndexRecordNS      int64

	// Formation-time breakdown (Figure 11): commit-order computation,
	// ww restoration, persisting to the committed indices, graph pruning,
	// and (when enabled) epoch compaction.
	ComputeOrderNS int64
	RestoreWWNS    int64
	PersistNS      int64
	PruneNS        int64
	CompactNS      int64
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
	keys *intern.Table
	cw   *MemIndex
	cr   *MemIndex
	// Pending transaction set P with its PW / PR key indices: per-KeyID
	// slices of pending writers/readers (slice indexing, no string hashing).
	pending []*txNode
	pw      [][]*txNode
	pr      [][]*txNode
	// nextBlock is M, the number of the next block to be committed.
	nextBlock uint64
	stats     Stats

	// Arrival/formation scratch, reused to keep the hot path allocation-
	// free: interned key buffers, the pred/succ working sets of Algorithm 2,
	// an index-query buffer, and the formation's contended-key collector.
	rbuf, wbuf []intern.Key
	predSet    map[*txNode]struct{}
	succSet    map[*txNode]struct{}
	idbuf      []TxID
	orderBuf   []*txNode
	wwKeys     []intern.Key
	wwGroups   [][]*txNode
	keyStamp   []uint64
	keyEpoch   uint64
}

// NewManager creates a Manager whose first formed block is number 1
// (block 0 being genesis).
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:      opts,
		g:         newGraph(opts.BloomBits, opts.BloomHashes),
		keys:      intern.NewTable(),
		cw:        NewMemIndex(),
		cr:        NewMemIndex(),
		nextBlock: 1,
		predSet:   make(map[*txNode]struct{}),
		succSet:   make(map[*txNode]struct{}),
	}
}

// Keys exposes the Manager's intern table (resident-key accounting).
func (m *Manager) Keys() *intern.Table { return m.keys }

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

// growKeyIndexed extends the per-KeyID pending indices (and the formation
// stamp array) to cover every key the table has issued.
func (m *Manager) growKeyIndexed() {
	n := m.keys.Len()
	for len(m.pw) < n {
		m.pw = append(m.pw, nil)
	}
	for len(m.pr) < n {
		m.pr = append(m.pr, nil)
	}
	for len(m.keyStamp) < n {
		m.keyStamp = append(m.keyStamp, 0)
	}
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

	// Intern the key sets once; everything downstream is KeyID-based.
	m.rbuf = m.keys.InternAll(m.rbuf[:0], readKeys)
	m.wbuf = m.keys.InternAll(m.wbuf[:0], writeKeys)
	m.growKeyIndexed()

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
		m.idbuf = m.cw.After(m.idbuf[:0], r, startTS)
		for _, txid := range m.idbuf {
			m.addLive(succ, txid)
		}
		for _, n := range m.pw[r] {
			succ[n] = struct{}{}
		}
		// n-wr: the writer of the version actually read.
		if txid, ok := m.cw.Before(r, startTS); ok {
			m.addLive(pred, txid)
		}
	}
	for _, w := range m.wbuf {
		m.addWritePreds(pred, w)
		for _, n := range m.pr[w] {
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
		m.pr[r] = append(m.pr[r], node)
	}
	for _, w := range node.writeKeys {
		m.pw[w] = append(m.pw[w], node)
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
func (m *Manager) addWritePreds(pred map[*txNode]struct{}, w intern.Key) {
	var since seqno.Seq
	if txid, seq, ok := m.cw.Last(w); ok {
		m.addLive(pred, txid)
		since = seq
	}
	m.idbuf = m.cr.After(m.idbuf[:0], w, since)
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
	m.rbuf = m.keys.InternAll(m.rbuf[:0], readKeys)
	m.wbuf = m.keys.InternAll(m.wbuf[:0], writeKeys)
	m.growKeyIndexed()
	pred := m.predSet
	defer clear(pred)
	for _, r := range m.rbuf {
		if txid, _, ok := m.cw.Last(r); ok {
			m.addLive(pred, txid)
		}
	}
	for _, w := range m.wbuf {
		m.addWritePreds(pred, w)
	}
	node := m.g.newNode(id, at, m.rbuf, m.wbuf)
	node.endTS, node.committed = at, true
	m.g.insert(node, pred, nil, at.Block)
	for _, w := range node.writeKeys {
		m.cw.Put(w, at, id)
	}
	for _, r := range node.readKeys {
		m.cr.Put(r, at, id)
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
	// record-key string (the same order the pre-interning implementation
	// used, so decisions are bit-identical), and hand the position-sorted
	// writer groups to the graph.
	t1 := metrics.StartWatch()
	m.keyEpoch++
	wwKeys := m.wwKeys[:0]
	for _, n := range order {
		for _, w := range n.writeKeys {
			if m.keyStamp[w] != m.keyEpoch && len(m.pw[w]) >= 2 {
				m.keyStamp[w] = m.keyEpoch
				wwKeys = append(wwKeys, w)
			}
		}
	}
	sortKeysByString(m.keys, wwKeys)
	groups := m.wwGroups[:0]
	for _, w := range wwKeys {
		sortWriters(m.pw[w])
		groups = append(groups, m.pw[w])
	}
	m.g.restoreWW(groups, topo)
	m.wwKeys = wwKeys
	m.wwGroups = groups
	m.stats.RestoreWWNS += t1.ElapsedNS()

	// Persist commitments to the CW/CR storages (Figure 11: "Persist to
	// storage") and clear the pending indices.
	t2 := metrics.StartWatch()
	ids := make([]TxID, len(order))
	for i, n := range order {
		ids[i] = n.id
		for _, w := range n.writeKeys {
			m.cw.Put(w, n.endTS, n.id)
		}
		for _, r := range n.readKeys {
			m.cr.Put(r, n.endTS, n.id)
		}
	}
	for _, n := range order {
		for _, w := range n.writeKeys {
			m.pw[w] = m.pw[w][:0]
		}
		for _, r := range n.readKeys {
			m.pr[r] = m.pr[r][:0]
		}
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
// "Prune G"), advance M, relay, compact. OnBlockFormation ends with it; the
// orderer calls it directly for a cut that formed nothing but still seals a
// block — one holding only a deferred tail.
func (m *Manager) SealBlock() {
	block := m.nextBlock
	t3 := metrics.StartWatch()
	m.nextBlock++
	if h, ok := m.horizon(); ok {
		m.stats.PrunedNodes += uint64(m.g.prune(h))
		m.cw.PruneBefore(h)
		m.cr.PruneBefore(h)
	}
	if block%m.opts.RelayBlocks == 0 {
		m.g.rebuildReachability()
	}
	m.stats.PruneNS += t3.ElapsedNS()

	// Epoch compaction (PR 4): after index pruning, at a block boundary
	// every replica reaches identically, rebuild the intern table around the
	// keys still referenced by retained state.
	if m.opts.CompactEvery > 0 && block%m.opts.CompactEvery == 0 {
		t4 := metrics.StartWatch()
		m.compact()
		m.stats.CompactNS += t4.ElapsedNS()
	}
}

// compact is the deterministic epoch compaction: it collects the liveness
// set — every KeyID still referenced by a retained CW/CR entry, a pending
// PW/PR slot, or a live graph node's key set — rebuilds the intern table
// with dense KeyIDs re-assigned in old-ID order, and remaps every
// KeyID-indexed structure. The liveness set and the old-ID iteration order
// are both pure functions of the consensus stream, so replicas starting
// from the same stream produce bit-identical post-compaction state; and
// because a dropped key by construction has no retained entries anywhere,
// every index query on it answers "empty" exactly as before — compaction
// cannot change scheduling decisions (asserted by the equivalence tests).
func (m *Manager) compact() {
	// Committed-but-unpruned nodes keep their key sets (only pending nodes'
	// sets are read again, but a stale KeyID anywhere is a latent
	// corruption), so every live node pins its keys.
	markNodes := func(live []bool) {
		for _, n := range m.g.nodes {
			for _, k := range n.readKeys {
				live[k] = true
			}
			for _, k := range n.writeKeys {
				live[k] = true
			}
		}
	}
	var remap []intern.Key
	m.pw, m.pr, remap = CompactKeyState(m.keys, m.cw, m.cr, m.pw, m.pr, markNodes)
	newLen := m.keys.Len()
	m.stats.Compactions++
	m.stats.CompactedKeys += uint64(len(remap) - newLen)
	// Stamps restart at zero: keyEpoch only grows and is never reset, so a
	// zero stamp can never collide with a live epoch.
	m.keyStamp = make([]uint64, newLen)
	//sharp:orderinvariant per-node in-place KeyID remap; every node is rewritten independently of visit order
	for _, n := range m.g.nodes {
		intern.RemapInPlace(n.readKeys, remap)
		intern.RemapInPlace(n.writeKeys, remap)
	}
	// Scratch that carried pre-compaction KeyIDs must not leak them, and
	// wwGroups' writer-slice aliases must not pin the retired slot arrays.
	m.rbuf, m.wbuf, m.wwKeys = m.rbuf[:0], m.wbuf[:0], m.wwKeys[:0]
	for i := range m.wwGroups {
		m.wwGroups[i] = nil
	}
	m.wwGroups = m.wwGroups[:0]
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

// sortKeysByString orders KeyIDs by their record-key strings — the
// deterministic iteration order Algorithm 5's edge restoration was specified
// with (sorted map keys before interning).
func sortKeysByString(tbl *intern.Table, keys []intern.Key) {
	if len(keys) < 2 {
		return
	}
	sort.Slice(keys, func(i, j int) bool { return tbl.Lookup(keys[i]) < tbl.Lookup(keys[j]) })
}
