package orderer

import (
	"fmt"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestDedupSeenEviction checks the replicas' duplicate-suppression memory is
// bounded by DedupHorizon: TxIDs resolved more than the horizon ago are
// forgotten, recent ones retained.
func TestDedupSeenEviction(t *testing.T) {
	msp, policy := identity.DevMSP("peer0")
	peer := identity.Deterministic("peer0", identity.RolePeer)
	stream := consensus.NewKafka()
	svc, err := New(Config{
		Options:  Options{System: sched.SystemSharp, BlockSize: 2, BlockTimeout: time.Hour, DedupHorizon: 2},
		MSP:      msp,
		Policy:   policy,
		Registry: chaincode.NewRegistry(),
		Ordering: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	id := func(i int) protocol.TxID { return protocol.TxID(fmt.Sprintf("tx%d", i)) }
	const txs = 12
	for i := 0; i < txs; i++ {
		tx := &protocol.Transaction{ID: id(i), ClientID: "dedup", RWSet: protocol.RWSet{
			Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}}}}
		tx.Endorsements = []protocol.Endorsement{{EndorserID: peer.ID, Signature: peer.Sign(tx.Digest())}}
		tx.RWSet.Precompute()
		if err := svc.Submit(consensus.Envelope{Tx: tx, SubmittedBy: "dedup"}); err != nil {
			t.Fatal(err)
		}
	}
	const sealed = txs / 2
	for deadline := time.Now().Add(5 * time.Second); (svc.Chain(0).Len() < sealed || svc.Chain(1).Len() < sealed) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// Replica goroutines must be quiesced before inspecting their maps.
	svc.Close()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, o := range svc.replicas {
		if got := o.chain.Len(); got != sealed {
			t.Fatalf("%s sealed %d blocks, want %d", o.name, got, sealed)
		}
		if o.seen[id(0)] {
			t.Errorf("%s: first TxID still deduped after %d blocks (horizon 2)", o.name, sealed)
		}
		if !o.seen[id(txs-1)] {
			t.Errorf("%s: most recent TxID evicted", o.name)
		}
		if len(o.seenByBlock) > 3 {
			t.Errorf("%s: %d dedup buckets retained (horizon 2)", o.name, len(o.seenByBlock))
		}
		if o.seenFloor+2 < sealed {
			t.Errorf("%s: eviction floor %d lags sealed height %d", o.name, o.seenFloor, sealed)
		}
	}
}
