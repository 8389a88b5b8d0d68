// Package core implements the paper's primary contribution: the
// fine-grained, reordering-based concurrency control for execute-order-
// validate blockchains (Sections 3.4 and 4).
//
// The Manager ingests transactions in consensus order (Algorithm 2),
// resolves their dependencies against four indices (Section 4.3), detects
// unreorderable cycles with bloom-filter reachability (Section 4.4,
// Theorem 2), emits a serializable commit order at block formation
// (Algorithm 3), restores write-write dependencies (Algorithm 5), and prunes
// the graph by snapshot staleness and age (Section 4.6).
//
// Record keys are interned (internal/intern): the Manager resolves each
// string key to a dense uint32 the first time it appears in the consensus
// stream, and every index and graph structure downstream operates on those
// KeyIDs — committed-index lookups become slice indexing instead of string
// hashing.
package core

import (
	"sort"

	"fabricsharp/internal/intern"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// TxID aliases the protocol transaction identifier.
type TxID = protocol.TxID

type memEntry struct {
	seq seqno.Seq
	id  TxID
}

// MemIndex is the committed-transaction index shape of Section 4.3:
// CommittedWriteTxns (CW) and CommittedReadTxns (CR) both map a record key
// plus the commit sequence of the accessing transaction to that
// transaction's identifier, and support the point and range queries the
// dependency resolution needs. Per interned KeyID it keeps an append-ordered
// slice of (commit seq, txn) entries — a plain slice lookup per query.
// Commit sequences arrive in increasing order, so the slices stay sorted
// without explicit sorting.
//
// Like the Manager that owns them, indices are confined to the orderer's
// single goroutine; they are not safe for concurrent use.
//
// Memory: pruning empties a key's slot but the slot itself (one slice
// header per KeyID ever issued) is retained — the cost of slice indexing
// over string hashing. See the trade-off note in docs/perf.md; workloads
// with unboundedly growing key spaces set CompactEvery.
type MemIndex struct {
	entries [][]memEntry // indexed by intern.Key
}

// NewMemIndex returns an empty index.
func NewMemIndex() *MemIndex { return &MemIndex{} }

// grow ensures the entry table covers key.
func (m *MemIndex) grow(key intern.Key) {
	for int(key) >= len(m.entries) {
		m.entries = append(m.entries, nil)
	}
}

// Put records that transaction id accessed key at commit sequence seq. Each
// (key, seq) pair must be written at most once — the Manager guarantees
// this, since commit sequences (block, pos) are unique.
func (m *MemIndex) Put(key intern.Key, seq seqno.Seq, id TxID) {
	m.grow(key)
	es := m.entries[key]
	if n := len(es); n > 0 && !es[n-1].seq.Less(seq) {
		// Defensive: an out-of-order insert keeps the slice sorted (the
		// schedulers always commit in increasing sequence order).
		i := sort.Search(n, func(i int) bool { return !es[i].seq.Less(seq) })
		es = append(es, memEntry{})
		copy(es[i+1:], es[i:])
		es[i] = memEntry{seq: seq, id: id}
		m.entries[key] = es
		return
	}
	m.entries[key] = append(es, memEntry{seq: seq, id: id})
}

// After appends to dst, in commit order, every transaction that accessed key
// with commit sequence >= from (the CW[key][from:] range query). Passing a
// reusable dst buffer keeps the arrival path allocation-free.
func (m *MemIndex) After(dst []TxID, key intern.Key, from seqno.Seq) []TxID {
	if int(key) >= len(m.entries) {
		return dst
	}
	es := m.entries[key]
	i := sort.Search(len(es), func(i int) bool { return !es[i].seq.Less(from) })
	for ; i < len(es); i++ {
		dst = append(dst, es[i].id)
	}
	return dst
}

// Before returns the last transaction that accessed key strictly before
// `before` (the CW.Before point query).
func (m *MemIndex) Before(key intern.Key, before seqno.Seq) (TxID, bool) {
	if int(key) >= len(m.entries) {
		return "", false
	}
	es := m.entries[key]
	i := sort.Search(len(es), func(i int) bool { return !es[i].seq.Less(before) })
	if i == 0 {
		return "", false
	}
	return es[i-1].id, true
}

// Last returns the most recent transaction that accessed key and its commit
// sequence (the CW.Last point query).
func (m *MemIndex) Last(key intern.Key) (TxID, seqno.Seq, bool) {
	if int(key) >= len(m.entries) {
		return "", seqno.Seq{}, false
	}
	es := m.entries[key]
	if len(es) == 0 {
		return "", seqno.Seq{}, false
	}
	e := es[len(es)-1]
	return e.id, e.seq, true
}

// MarkLive sets live[k] = true for every KeyID with at least one retained
// entry — the index's contribution to the liveness set of an epoch
// compaction. Keys at or beyond len(live) are ignored (they were interned
// after the caller sized the slice and are handled separately).
func (m *MemIndex) MarkLive(live []bool) {
	for key, es := range m.entries {
		if len(es) > 0 && key < len(live) {
			live[key] = true
		}
	}
}

// Remap informs the index that the shared intern table was compacted:
// remap[old] is each old KeyID's new identity, or intern.Dropped. Slots of
// retained keys move to their new dense index (keeping their backing
// arrays), slots of dropped keys are released to the GC — this is where a
// churn workload's retired key slots are actually reclaimed.
func (m *MemIndex) Remap(remap []intern.Key, newLen int) {
	m.entries = intern.RemapSlots(m.entries, remap, newLen)
}

// Slots returns the number of KeyID slots currently held (tests, metrics):
// the quantity compaction bounds for churn workloads.
func (m *MemIndex) Slots() int { return len(m.entries) }

// PruneBefore removes every entry whose commit sequence's block is strictly
// below minBlock (Section 4.6's index pruning).
func (m *MemIndex) PruneBefore(minBlock uint64) {
	for key, es := range m.entries {
		i := 0
		for i < len(es) && es[i].seq.Block < minBlock {
			i++
		}
		if i == 0 {
			continue
		}
		if i == len(es) {
			m.entries[key] = nil
			continue
		}
		// Shift in place: the key slot keeps its backing array, so steady-
		// state pruning allocates nothing.
		n := copy(es, es[i:])
		for j := n; j < len(es); j++ {
			es[j] = memEntry{}
		}
		m.entries[key] = es[:n]
	}
}

// CompactKeyState is the shared liveness+remap core of epoch compaction for
// schedulers whose interned-key state is (CW, CR, pending-writer/reader
// slot tables): a key is live iff some index retained an entry for it, some
// pending slot is non-empty, or extraLive marks it (the Manager adds live
// graph nodes' key sets there). The table is rebuilt with dense KeyIDs
// re-assigned in old-ID order, both indices are told to remap, and the slot
// tables are rebuilt. Keeping this protocol in one place is what keeps the
// per-scheduler compactions replica-deterministic in lockstep — callers add
// structure-specific steps (scratch truncation, stamp resets) on top.
func CompactKeyState[T any](tbl *intern.Table, cw, cr *MemIndex, pw, pr [][]T, extraLive func(live []bool)) (newPW, newPR [][]T, remap []intern.Key) {
	live := make([]bool, tbl.Len())
	cw.MarkLive(live)
	cr.MarkLive(live)
	for k := range pw {
		if len(pw[k]) > 0 {
			live[k] = true
		}
	}
	for k := range pr {
		if len(pr[k]) > 0 {
			live[k] = true
		}
	}
	if extraLive != nil {
		extraLive(live)
	}
	remap = tbl.Compact(func(k intern.Key) bool { return live[k] })
	newLen := tbl.Len()
	cw.Remap(remap, newLen)
	cr.Remap(remap, newLen)
	return intern.RemapSlots(pw, remap, newLen), intern.RemapSlots(pr, remap, newLen), remap
}
