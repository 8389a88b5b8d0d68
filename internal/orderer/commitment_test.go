package orderer

import (
	"testing"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

func TestCommitmentBrokerOrdering(t *testing.T) {
	b := NewCommitmentBroker()
	tx := func(id string) *protocol.Transaction {
		return &protocol.Transaction{ID: protocol.TxID(id), SnapshotBlock: 1,
			RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: id, Version: seqno.Commit(1, 1)}}}}
	}
	t1, t2, t3 := tx("t1"), tx("t2"), tx("t3")
	// Commitments sequenced t1, t2, t3; disclosures arrive out of order.
	b.Commit(t1.DigestHex())
	b.Commit(t2.DigestHex())
	b.Commit(t3.DigestHex())
	if b.PendingCommitments() != 3 {
		t.Fatalf("pending = %d", b.PendingCommitments())
	}
	rel, err := b.Disclose(t2)
	if err != nil || len(rel) != 0 {
		t.Fatalf("t2 disclosure released %v, %v (t1 still sealed)", rel, err)
	}
	rel, err = b.Disclose(t1)
	if err != nil || len(rel) != 2 || rel[0].ID != "t1" || rel[1].ID != "t2" {
		t.Fatalf("t1 disclosure released %v, %v", ids(rel), err)
	}
	rel, err = b.Disclose(t3)
	if err != nil || len(rel) != 1 || rel[0].ID != "t3" {
		t.Fatalf("t3 disclosure released %v, %v", ids(rel), err)
	}
	if b.PendingCommitments() != 0 {
		t.Fatalf("pending = %d", b.PendingCommitments())
	}
}

func ids(txs []*protocol.Transaction) []string {
	out := make([]string, len(txs))
	for i, tx := range txs {
		out[i] = string(tx.ID)
	}
	return out
}

func TestCommitmentBrokerRejectsTampering(t *testing.T) {
	b := NewCommitmentBroker()
	honest := &protocol.Transaction{ID: "tx", RWSet: protocol.RWSet{
		Writes: []protocol.WriteItem{{Key: "k", Value: []byte("promised")}}}}
	b.Commit(honest.DigestHex())
	// The client mutates the payload after sequencing the commitment.
	tampered := &protocol.Transaction{ID: "tx", RWSet: protocol.RWSet{
		Writes: []protocol.WriteItem{{Key: "k", Value: []byte("mutated")}}}}
	if _, err := b.Disclose(tampered); err == nil {
		t.Error("tampered disclosure accepted")
	}
	// The honest disclosure still goes through.
	if rel, err := b.Disclose(honest); err != nil || len(rel) != 1 {
		t.Errorf("honest disclosure: %v %v", rel, err)
	}
	// Replayed disclosure rejected.
	if _, err := b.Disclose(honest); err == nil {
		t.Error("replayed disclosure accepted")
	}
}

func TestCommitmentBrokerRejectsUncommittedDisclosure(t *testing.T) {
	b := NewCommitmentBroker()
	if _, err := b.Disclose(&protocol.Transaction{ID: "ghost"}); err == nil {
		t.Error("disclosure without commitment accepted")
	}
}
