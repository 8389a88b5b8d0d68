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

	key string
	due uint64 // 1 + the block of the due list naming the key; 0 if none
}

// MemIndex maps each record key with retained state to its KeyState. Like
// the schedulers that own them, indices are confined to the orderer's single
// goroutine; they are not safe for concurrent use. The zero value is empty
// and ready to use.
//
// PruneBefore visits only the keys whose state can have changed what it
// retains, found in per-block due lists: a key Get returned is due at the
// next prune, and a key with CW or CR entries is due when its oldest entry
// falls below the horizon. That is every key a sweep of all of them would
// trim or delete, since a key gains entries and pending transactions only
// through Get.
type MemIndex[T any] struct {
	keys map[string]*KeyState[T]
	due  blockLists[*KeyState[T]]
}

// Get returns key's state, creating an empty one on first sight.
func (m *MemIndex[T]) Get(key string) *KeyState[T] {
	s, ok := m.keys[key]
	if !ok {
		if m.keys == nil {
			m.keys = map[string]*KeyState[T]{}
		}
		s = &KeyState[T]{key: key}
		m.keys[key] = s
	}
	m.list(s, m.due.from)
	return s
}

// list makes s due at block b unless it already is at or before b.
func (m *MemIndex[T]) list(s *KeyState[T], b uint64) {
	if s.due == 0 || b+1 < s.due {
		s.due = b + 1
		m.due.add(b, s)
	}
}

// Len returns the number of keys with retained state.
func (m *MemIndex[T]) Len() int { return len(m.keys) }

// PruneBefore prunes the CW and CR entries below minBlock and deletes the
// keys left with no entry and no pending transaction, so the index holds
// exactly the keys the Section 4.6 horizon retains — what a sweep of every
// key would leave (Unswept).
func (m *MemIndex[T]) PruneBefore(minBlock uint64) {
	m.due.drain(minBlock, func(s *KeyState[T]) {
		if s.due != m.due.from+1 {
			return // due earlier since, or deleted
		}
		s.due = 0
		s.CW.PruneBefore(minBlock)
		s.CR.PruneBefore(minBlock)
		switch {
		case len(s.CW) > 0 && (len(s.CR) == 0 || s.CW[0].seq.Block < s.CR[0].seq.Block):
			m.list(s, s.CW[0].seq.Block)
		case len(s.CR) > 0:
			m.list(s, s.CR[0].seq.Block)
		case len(s.PW)+len(s.PR) > 0:
			m.list(s, minBlock) // held by pending transactions alone: look again next time
		default:
			delete(m.keys, s.key)
		}
	})
}

// Unswept counts the keys a sweep of every key at minBlock would still
// trim or delete; it is zero after PruneBefore(minBlock).
func (m *MemIndex[T]) Unswept(minBlock uint64) (n int) {
	//sharp:orderinvariant test oracle counting the keys a full sweep would touch; a count is the same in any visit order
	for _, s := range m.keys {
		if len(s.CW) > 0 && s.CW[0].seq.Block < minBlock || len(s.CR) > 0 && s.CR[0].seq.Block < minBlock ||
			len(s.CW)+len(s.CR)+len(s.PW)+len(s.PR) == 0 {
			n++
		}
	}
	return n
}

// blockLists files elements under block numbers and hands them back once a
// horizon passes their block. The zero value is empty and ready to use.
type blockLists[E any] struct {
	lists [][]E  // lists[i] holds the elements filed under block from+i
	from  uint64 // drain has emptied every list below from
	spare [][]E  // emptied lists, kept for reuse
}

// add files e under block b, or under from when a drain already passed b.
func (l *blockLists[E]) add(b uint64, e E) {
	i := int(max(b, l.from) - l.from)
	for len(l.lists) <= i {
		l.lists = append(l.lists, take(&l.spare))
	}
	l.lists[i] = append(l.lists[i], e)
}

// drain hands fn every element filed below horizon, oldest block first;
// while it runs, from is the block being drained, and fn may file elements
// at or above horizon.
func (l *blockLists[E]) drain(horizon uint64, fn func(E)) {
	for ; l.from < horizon && len(l.lists) > 0; l.from++ {
		for _, e := range l.lists[0] {
			fn(e)
		}
		recycle(&l.spare, l.lists[0])
		l.lists = l.lists[1:]
	}
	l.from = max(l.from, horizon)
}

// take pops a recycled slice off spare, or returns nil.
func take[E any](spare *[][]E) (s []E) {
	if k := len(*spare) - 1; k >= 0 {
		s, *spare = (*spare)[k], (*spare)[:k]
	}
	return s
}

// recycle empties s (dropping its pointers) and keeps it for take.
func recycle[E any](spare *[][]E, s []E) {
	clear(s)
	*spare = append(*spare, s[:0])
}
