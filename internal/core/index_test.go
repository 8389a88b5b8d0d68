package core

import (
	"fmt"
	"testing"

	"fabricsharp/internal/intern"
	"fabricsharp/internal/seqno"
)

func TestMemIndexBasics(t *testing.T) {
	keys, idx := intern.NewTable(), NewMemIndex()
	kA, kB, kMissing := keys.Intern("A"), keys.Intern("B"), keys.Intern("missing")
	idx.Put(kA, seqno.Commit(3, 2), "txn1")
	idx.Put(kA, seqno.Commit(4, 1), "txn7")
	idx.Put(kA, seqno.Commit(5, 3), "txn9")
	idx.Put(kB, seqno.Commit(4, 2), "txn8")

	// Last, with the sequence the write-predecessor reduction reads.
	if id, seq, ok := idx.Last(kA); !ok || id != "txn9" || seq != seqno.Commit(5, 3) {
		t.Errorf("Last(A) = %v,%v,%v", id, seq, ok)
	}
	if _, _, ok := idx.Last(kMissing); ok {
		t.Error("Last(missing) found something")
	}
	// Before: the paper's CW.Before(key, seq) — last committed strictly
	// earlier than seq.
	if id, ok := idx.Before(kA, seqno.Snapshot(3)); !ok || id != "txn1" {
		t.Errorf("Before(A,(4,0)) = %v,%v want txn1", id, ok)
	}
	if _, ok := idx.Before(kA, seqno.Commit(3, 2)); ok {
		t.Error("Before at the exact first seq should be empty")
	}
	// After: CW[key][seq:].
	if got := idx.After(nil, kA, seqno.Snapshot(3)); fmt.Sprint(got) != "[txn7 txn9]" {
		t.Errorf("After(A,(4,0)) = %v", got)
	}
	if got := idx.After(nil, kA, seqno.Seq{}); fmt.Sprint(got) != "[txn1 txn7 txn9]" {
		t.Errorf("After(A,zero) = %v", got)
	}
	// After appends to the passed buffer.
	if got := idx.After([]TxID{"sentinel"}, kA, seqno.Snapshot(3)); fmt.Sprint(got) != "[sentinel txn7 txn9]" {
		t.Errorf("After with buffer = %v", got)
	}
	// PruneBefore drops block < 4.
	idx.PruneBefore(4)
	if got := idx.After(nil, kA, seqno.Seq{}); fmt.Sprint(got) != "[txn7 txn9]" {
		t.Errorf("after prune After(A,zero) = %v", got)
	}
	if id, _, ok := idx.Last(kB); !ok || id != "txn8" {
		t.Errorf("prune damaged B: %v,%v", id, ok)
	}
}

// TestMemIndexOutOfOrderInsert covers the defensive out-of-order insert
// branch: a late Put of an earlier sequence lands in sorted position, and
// every query and a later prune see the sorted slice.
func TestMemIndexOutOfOrderInsert(t *testing.T) {
	idx := NewMemIndex()
	k := intern.NewTable().Intern("K")
	// Arrive out of order: (5,1) then (3,1) then (4,2).
	idx.Put(k, seqno.Commit(5, 1), "late")
	idx.Put(k, seqno.Commit(3, 1), "early")
	idx.Put(k, seqno.Commit(4, 2), "middle")
	if got := idx.After(nil, k, seqno.Seq{}); fmt.Sprint(got) != "[early middle late]" {
		t.Errorf("After(zero) = %v, want [early middle late]", got)
	}
	if got := idx.After(nil, k, seqno.Snapshot(3)); fmt.Sprint(got) != "[middle late]" {
		t.Errorf("After((4,0)) = %v, want [middle late]", got)
	}
	if id, ok := idx.Before(k, seqno.Snapshot(4)); !ok || id != "middle" {
		t.Errorf("Before((5,0)) = %v,%v, want middle", id, ok)
	}
	if id, _, ok := idx.Last(k); !ok || id != "late" {
		t.Errorf("Last = %v,%v, want late", id, ok)
	}
	idx.PruneBefore(4)
	if got := idx.After(nil, k, seqno.Seq{}); fmt.Sprint(got) != "[middle late]" {
		t.Errorf("post-prune After(zero) = %v, want [middle late]", got)
	}
}

// TestMemIndexMarkLiveRemap drives the index through the compaction
// protocol: after puts and pruning it reports the liveness set, and after
// the shared table compacts it answers every query through the remapped
// KeyIDs.
func TestMemIndexMarkLiveRemap(t *testing.T) {
	keys := intern.NewTable()
	idx := NewMemIndex()
	// key0..key2 get entries in old blocks (pruned away), key3..key5 recent.
	for i := 0; i < 6; i++ {
		idx.Put(keys.Intern(fmt.Sprintf("key%d", i)), seqno.Commit(uint64(i+1), 1), TxID(fmt.Sprintf("t%d", i)))
	}
	idx.PruneBefore(4)
	live := make([]bool, keys.Len())
	idx.MarkLive(live)
	if fmt.Sprint(live) != "[false false false true true true]" {
		t.Fatalf("liveness = %v", live)
	}

	remap := keys.Compact(func(k intern.Key) bool { return live[k] })
	idx.Remap(remap, keys.Len())
	if idx.Slots() != 3 {
		t.Fatalf("slots = %d, want 3 (retired slots reclaimed)", idx.Slots())
	}
	// Every retained key answers through its new KeyID; the re-interned
	// incarnation of a dropped key is empty.
	for i := 3; i < 6; i++ {
		nk, ok := keys.Find(fmt.Sprintf("key%d", i))
		if !ok {
			t.Fatalf("key%d lost by compaction", i)
		}
		if id, _, found := idx.Last(nk); !found || id != TxID(fmt.Sprintf("t%d", i)) {
			t.Errorf("Last(key%d) = %v,%v after remap", i, id, found)
		}
	}
	if got := idx.After(nil, keys.Intern("key0"), seqno.Seq{}); len(got) != 0 {
		t.Errorf("re-interned dropped key has entries: %v", got)
	}
}
