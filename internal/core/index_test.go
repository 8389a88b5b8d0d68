package core

import (
	"fmt"
	"testing"

	"fabricsharp/internal/seqno"
)

func TestMemIndexBasics(t *testing.T) {
	idx := MemIndex[*txNode]{}
	a, b := idx.Get("A"), idx.Get("B")
	a.CW.Put(seqno.Commit(3, 2), "txn1")
	a.CW.Put(seqno.Commit(4, 1), "txn7")
	a.CW.Put(seqno.Commit(5, 3), "txn9")
	b.CW.Put(seqno.Commit(4, 2), "txn8")
	if idx.Get("A") != a {
		t.Fatal("Get created a second state for a known key")
	}

	// Last, with the sequence the write-predecessor reduction reads.
	if id, seq, ok := a.CW.Last(); !ok || id != "txn9" || seq != seqno.Commit(5, 3) {
		t.Errorf("Last(A) = %v,%v,%v", id, seq, ok)
	}
	if _, _, ok := idx.Get("missing").CW.Last(); ok {
		t.Error("Last(missing) found something")
	}
	// Before: the paper's CW.Before(key, seq) — last committed strictly
	// earlier than seq.
	if id, ok := a.CW.Before(seqno.Snapshot(3)); !ok || id != "txn1" {
		t.Errorf("Before(A,(4,0)) = %v,%v want txn1", id, ok)
	}
	if _, ok := a.CW.Before(seqno.Commit(3, 2)); ok {
		t.Error("Before at the exact first seq should be empty")
	}
	// After: CW[key][seq:].
	if got := a.CW.After(nil, seqno.Snapshot(3)); fmt.Sprint(got) != "[txn7 txn9]" {
		t.Errorf("After(A,(4,0)) = %v", got)
	}
	if got := a.CW.After(nil, seqno.Seq{}); fmt.Sprint(got) != "[txn1 txn7 txn9]" {
		t.Errorf("After(A,zero) = %v", got)
	}
	// After appends to the passed buffer.
	if got := a.CW.After([]TxID{"sentinel"}, seqno.Snapshot(3)); fmt.Sprint(got) != "[sentinel txn7 txn9]" {
		t.Errorf("After with buffer = %v", got)
	}
	// PruneBefore drops block < 4, and with it the key nothing retains.
	idx.PruneBefore(4)
	if got := a.CW.After(nil, seqno.Seq{}); fmt.Sprint(got) != "[txn7 txn9]" {
		t.Errorf("after prune After(A,zero) = %v", got)
	}
	if id, _, ok := b.CW.Last(); !ok || id != "txn8" {
		t.Errorf("prune damaged B: %v,%v", id, ok)
	}
	if _, ok := idx["missing"]; ok || len(idx) != 2 {
		t.Errorf("prune kept %d keys, want A and B", len(idx))
	}
}

// TestMemIndexPruneDeletesEmptyKeys pins what bounds residency: pruning
// deletes a key once its CW and CR entries are all behind the horizon and
// nothing pending accesses it, and keeps it while anything does.
func TestMemIndexPruneDeletesEmptyKeys(t *testing.T) {
	idx := MemIndex[*txNode]{}
	idx.Get("old").CW.Put(seqno.Commit(1, 1), "t1")
	idx.Get("read").CR.Put(seqno.Commit(2, 1), "t2")
	idx.Get("pending").PR = []*txNode{{id: "p"}}
	idx.Get("recent").CW.Put(seqno.Commit(5, 1), "t5")
	idx.PruneBefore(3)
	var kept []string
	for _, k := range []string{"old", "read", "pending", "recent"} {
		if _, ok := idx[k]; ok {
			kept = append(kept, k)
		}
	}
	if fmt.Sprint(kept) != "[pending recent]" {
		t.Fatalf("kept %v after pruning below block 3, want [pending recent]", kept)
	}
}

// TestMemIndexOutOfOrderInsert covers the defensive out-of-order insert
// branch: a late Put of an earlier sequence lands in sorted position, and
// every query and a later prune see the sorted slice.
func TestMemIndexOutOfOrderInsert(t *testing.T) {
	var a Accesses
	// Arrive out of order: (5,1) then (3,1) then (4,2).
	a.Put(seqno.Commit(5, 1), "late")
	a.Put(seqno.Commit(3, 1), "early")
	a.Put(seqno.Commit(4, 2), "middle")
	if got := a.After(nil, seqno.Seq{}); fmt.Sprint(got) != "[early middle late]" {
		t.Errorf("After(zero) = %v, want [early middle late]", got)
	}
	if got := a.After(nil, seqno.Snapshot(3)); fmt.Sprint(got) != "[middle late]" {
		t.Errorf("After((4,0)) = %v, want [middle late]", got)
	}
	if id, ok := a.Before(seqno.Snapshot(4)); !ok || id != "middle" {
		t.Errorf("Before((5,0)) = %v,%v, want middle", id, ok)
	}
	if id, _, ok := a.Last(); !ok || id != "late" {
		t.Errorf("Last = %v,%v, want late", id, ok)
	}
	a.PruneBefore(4)
	if got := a.After(nil, seqno.Seq{}); fmt.Sprint(got) != "[middle late]" {
		t.Errorf("post-prune After(zero) = %v, want [middle late]", got)
	}
}
