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
// The four indices are keyed by the record key: one KeyState per key holds
// its CW, CR, PW and PR entries, so an arrival resolves each of its keys
// with one map lookup, and pruning deletes a key once nothing retains it.
package core

import (
	"sort"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// TxID aliases the protocol transaction identifier.
type TxID = protocol.TxID

type memEntry struct {
	seq seqno.Seq
	id  TxID
}

// Accesses is one record key's share of a committed index of Section 4.3 —
// CommittedWriteTxns[key] (CW) or CommittedReadTxns[key] (CR): the commit
// sequence and identifier of each transaction that wrote (read) the key, in
// commit order, with the point and range queries the dependency resolution
// needs. Commit sequences arrive in increasing order, so the slice stays
// sorted without explicit sorting.
type Accesses []memEntry

// Put records that transaction id accessed the key at commit sequence seq.
// Each seq must be recorded at most once — the schedulers guarantee this,
// since commit sequences (block, pos) are unique.
func (a *Accesses) Put(seq seqno.Seq, id TxID) {
	es := *a
	if n := len(es); n > 0 && !es[n-1].seq.Less(seq) {
		// Defensive: an out-of-order insert keeps the slice sorted (the
		// schedulers always commit in increasing sequence order).
		i := sort.Search(n, func(i int) bool { return !es[i].seq.Less(seq) })
		es = append(es, memEntry{})
		copy(es[i+1:], es[i:])
		es[i] = memEntry{seq: seq, id: id}
		*a = es
		return
	}
	*a = append(es, memEntry{seq: seq, id: id})
}

// After appends to dst, in commit order, every transaction that accessed the
// key with commit sequence >= from (the CW[key][from:] range query). Passing
// a reusable dst buffer keeps the arrival path allocation-free.
func (a Accesses) After(dst []TxID, from seqno.Seq) []TxID {
	i := sort.Search(len(a), func(i int) bool { return !a[i].seq.Less(from) })
	for ; i < len(a); i++ {
		dst = append(dst, a[i].id)
	}
	return dst
}

// Before returns the last transaction that accessed the key strictly before
// `before` (the CW.Before point query).
func (a Accesses) Before(before seqno.Seq) (TxID, bool) {
	i := sort.Search(len(a), func(i int) bool { return !a[i].seq.Less(before) })
	if i == 0 {
		return "", false
	}
	return a[i-1].id, true
}

// Last returns the most recent transaction that accessed the key and its
// commit sequence (the CW.Last point query).
func (a Accesses) Last() (TxID, seqno.Seq, bool) {
	if len(a) == 0 {
		return "", seqno.Seq{}, false
	}
	e := a[len(a)-1]
	return e.id, e.seq, true
}

// PruneBefore removes every entry whose commit sequence's block is strictly
// below minBlock (Section 4.6's index pruning).
func (a *Accesses) PruneBefore(minBlock uint64) {
	es := *a
	i := 0
	for i < len(es) && es[i].seq.Block < minBlock {
		i++
	}
	if i == 0 {
		return
	}
	// Shift in place: the key keeps its backing array, so steady-state
	// pruning allocates nothing.
	n := copy(es, es[i:])
	clear(es[n:])
	*a = es[:n]
}

// KeyState is everything a scheduler keeps for one record key: its entries
// in the committed indices (CW, CR) and its pending writers and readers
// (PW, PR, of element type T).
type KeyState[T any] struct {
	CW, CR Accesses
	PW, PR []T
}

// MemIndex maps each record key with retained state to its KeyState. Like
// the schedulers that own them, indices are confined to the orderer's single
// goroutine; they are not safe for concurrent use.
type MemIndex[T any] map[string]*KeyState[T]

// Get returns key's state, creating an empty one on first sight.
func (m MemIndex[T]) Get(key string) *KeyState[T] {
	s, ok := m[key]
	if !ok {
		s = &KeyState[T]{}
		m[key] = s
	}
	return s
}

// PruneBefore prunes every key's CW and CR entries below minBlock and
// deletes the keys left with no entry and no pending transaction, so the
// index holds exactly the keys the Section 4.6 horizon retains.
func (m MemIndex[T]) PruneBefore(minBlock uint64) {
	//sharp:orderinvariant each key's entries are pruned, and the key deleted, independently of every other key
	for key, s := range m {
		s.CW.PruneBefore(minBlock)
		s.CR.PruneBefore(minBlock)
		if len(s.CW)+len(s.CR)+len(s.PW)+len(s.PR) == 0 {
			delete(m, key)
		}
	}
}
