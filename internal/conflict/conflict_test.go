package conflict

import (
	"fmt"
	"testing"

	"fabricsharp/internal/protocol"
)

func TestPartitionByConflict(t *testing.T) {
	tx := func(id string, reads ...string) *protocol.Transaction {
		out := &protocol.Transaction{ID: protocol.TxID(id)}
		for _, k := range reads {
			out.RWSet.Reads = append(out.RWSet.Reads, protocol.ReadItem{Key: k})
		}
		return out
	}
	withWrites := func(t0 *protocol.Transaction, keys ...string) *protocol.Transaction {
		for _, k := range keys {
			t0.RWSet.Writes = append(t0.RWSet.Writes, protocol.WriteItem{Key: k, Value: []byte("v")})
		}
		return t0
	}
	txs := []*protocol.Transaction{
		withWrites(tx("a", "x"), "x"), // group {a, c} via x
		withWrites(tx("b", "y"), "z"), // group {b, d} via z
		withWrites(tx("c"), "x"),      // joins a
		withWrites(tx("d", "z"), "w"), // joins b
		withWrites(tx("e", "q"), "q"), // alone
		tx("f", "x", "z"),             // bridges both → one merged group
	}
	// f reads x and z, merging {a,c} and {b,d} into one group of 5, plus {e}.
	codes := make([]protocol.ValidationCode, len(txs))
	valid := func(i int) bool { return codes[i] == protocol.Valid }
	groups := Partition(txs, valid)
	if len(groups) != 2 {
		t.Fatalf("groups = %d (%v)", len(groups), groups)
	}
	sizes := map[int]bool{len(groups[0]): true, len(groups[1]): true}
	if !sizes[5] || !sizes[1] {
		t.Fatalf("group sizes = %v", groups)
	}
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				t.Fatalf("group not in block order: %v", g)
			}
		}
	}
	// An endorsement-failed transaction leaves the partition entirely.
	codes[5] = protocol.EndorsementFailure
	groups = Partition(txs, valid)
	if len(groups) != 3 {
		t.Fatalf("groups after exclusion = %d (%v)", len(groups), groups)
	}
}

// TestPartitionHotReadOnlyKey: a key every transaction reads but none
// writes keeps its committed version for the whole block, so it must not
// serialize the partition.
func TestPartitionHotReadOnlyKey(t *testing.T) {
	const n = 16
	txs := make([]*protocol.Transaction, n)
	for i := range txs {
		txs[i] = &protocol.Transaction{
			ID: protocol.TxID(fmt.Sprintf("t%d", i)),
			RWSet: protocol.RWSet{
				Reads:  []protocol.ReadItem{{Key: "config"}}, // hot, never written
				Writes: []protocol.WriteItem{{Key: fmt.Sprintf("own%d", i), Value: []byte("v")}},
			},
		}
	}
	all := func(int) bool { return true }
	groups := Partition(txs, all)
	if len(groups) != n {
		t.Fatalf("hot read-only key collapsed partition to %d groups, want %d", len(groups), n)
	}
	// But one writer of the hot key couples every reader.
	txs[0].RWSet.Writes = append(txs[0].RWSet.Writes, protocol.WriteItem{Key: "config", Value: []byte("v2")})
	groups = Partition(txs, all)
	if len(groups) != 1 {
		t.Fatalf("written hot key split into %d groups, want 1", len(groups))
	}
}
