package fabric

import (
	"fmt"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestFrontRunningAttack demonstrates the Section 3.5 vulnerability the
// hash-commitment protocol exists for: a party controlling proposal order
// observes TxnT (read-modify-write on a record against snapshot N), forges
// TxnT' touching the same record, and sequences TxnT' first. TxnT' passes
// the reorderability test; TxnT then closes an unreorderable cycle (c-rw one
// way, anti-rw the other) and every honest orderer aborts it.
func TestFrontRunningAttack(t *testing.T) {
	s := sched.NewSharp(sched.Options{})
	victim := &protocol.Transaction{
		ID:            "TxnT",
		SnapshotBlock: 0,
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "record"}},
			Writes: []protocol.WriteItem{{Key: "record", Value: []byte("victim")}},
		},
	}
	// The attacker sees the victim's read/write set and mirrors it.
	attacker := &protocol.Transaction{
		ID:            "TxnT-prime",
		SnapshotBlock: 0,
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "record"}},
			Writes: []protocol.WriteItem{{Key: "record", Value: []byte("attacker")}},
		},
	}
	// Malicious ordering: attacker first.
	code, err := s.OnArrival(attacker)
	if err != nil || code != protocol.Valid {
		t.Fatalf("attacker tx: %v %v", code, err)
	}
	code, err = s.OnArrival(victim)
	if err != nil {
		t.Fatal(err)
	}
	if code != protocol.AbortCycle {
		t.Fatalf("victim should be censored via cycle abort, got %v", code)
	}
	// Had the victim been sequenced first, it would have been admitted —
	// the attack is purely about ordering, which is why hiding contents
	// until the order is fixed (hash commitment) mitigates it.
	s2 := sched.NewSharp(sched.Options{})
	if code, _ := s2.OnArrival(victim); code != protocol.Valid {
		t.Fatalf("victim first should be admitted, got %v", code)
	}
}

// TestForgedFutureSnapshotRejected is the hostile-input regression for the
// ordering path: an unendorsed envelope claiming a snapshot at or above the
// block being assembled used to reach the scheduler, whose contract error
// (core.Manager.OnArrival) took down every fabric# replica on the same
// stream entry. No honest endorsement can carry such a snapshot, so every
// system must reject it before the scheduler as an early abort, stay
// healthy, and go on committing honest traffic.
func TestForgedFutureSnapshotRejected(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			stream := consensus.NewKafka()
			n := newNet(t, Options{System: system, Ordering: stream})
			// Mallory bypasses the client API, so park the waiter a client
			// would have registered by hand.
			results := make(chan TxResult, 1)
			n.waitersMu.Lock()
			n.waiters["forged"] = results
			n.waitersMu.Unlock()
			forged := &protocol.Transaction{
				ID:            "forged",
				ClientID:      "mallory",
				SnapshotBlock: 1, // the block being assembled: not yet sealed
				RWSet:         protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("v")}}},
			}
			forged.RWSet.Precompute()
			if err := stream.Submit(consensus.Envelope{Tx: forged, SubmittedBy: "mallory"}); err != nil {
				t.Fatal(err)
			}
			select {
			case res := <-results:
				if res.TxID != "forged" || res.Code != protocol.EndorsementFailure || res.Block != 0 {
					t.Fatalf("forged transaction resolved as %+v, want an early EndorsementFailure abort", res)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("forged transaction never resolved (network error: %v)", n.Err())
			}
			client, err := n.NewClient("honest")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.MustSubmit("kv", "put", "after", "forgery"); err != nil {
				t.Fatalf("honest transaction after the forgery: %v", err)
			}
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEndorsingPeerRejectsItsAlteredEndorsement is TestEndorsementBindsRWSet
// end to end: a peer endorses a transaction, the write set is altered with
// the signature kept, and the envelope is ordered behind an honest one the
// same peer endorsed. The orderer (which has no signed-endorsement ring)
// seals Valid then EndorsementFailure, and the endorsing peer — whose ring
// recorded both signatures — must derive the same codes as the other three,
// or its committer fails the byte assertion against the sealed verdicts.
func TestEndorsingPeerRejectsItsAlteredEndorsement(t *testing.T) {
	stream := consensus.NewKafka()
	n := newNet(t, Options{System: sched.SystemFabric, Ordering: stream, BlockSize: 2})
	results := make(chan TxResult, 2)
	var txs []*protocol.Transaction
	n.waitersMu.Lock()
	for _, id := range []protocol.TxID{"honest", "altered"} {
		tx := &protocol.Transaction{ID: id, ClientID: "mallory", Contract: "kv", Function: "put", Args: []string{string(id), "v"}}
		if _, err := n.Peer(0).Endorse(tx); err != nil {
			t.Fatal(err)
		}
		n.waiters[id] = results
		txs = append(txs, tx)
	}
	n.waitersMu.Unlock()
	txs[1].RWSet.Writes[0].Value = []byte("not what peer0 signed")
	for _, tx := range txs {
		tx.RWSet.Precompute()
		if err := stream.Submit(consensus.Envelope{Tx: tx, SubmittedBy: "mallory"}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[protocol.TxID]protocol.ValidationCode{"honest": protocol.Valid, "altered": protocol.EndorsementFailure}
	for range txs {
		select {
		case res := <-results:
			if res.Code != want[res.TxID] {
				t.Fatalf("%s resolved %v, want %v", res.TxID, res.Code, want[res.TxID])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a transaction never resolved (network error: %v)", n.Err())
		}
	}
	if !n.WaitIdle(10 * time.Second) {
		t.Fatal("network did not go idle")
	}
	if err := n.Err(); err != nil {
		t.Fatalf("a peer diverged from the sealed verdicts: %v", err)
	}
	if _, ok := n.Peer(0).State().Get("honest"); !ok {
		t.Fatal("the honest write did not reach the endorsing peer's state")
	}
	if _, ok := n.Peer(0).State().Get("altered"); ok {
		t.Fatal("the altered write reached the endorsing peer's state")
	}
}

func TestHashCommitmentEndToEnd(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp, HashCommitment: true})
	client, err := n.NewClient("committed-client")
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.SubmitCommitted("kv", "put", "sealed", "envelope")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() {
		t.Fatalf("code = %v", res.Code)
	}
	val, err := client.Query("kv", "get", "sealed")
	if err != nil || string(val) != "envelope" {
		t.Fatalf("query = %q, %v", val, err)
	}
}

func TestHashCommitmentRequiresOption(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	if _, err := client.SubmitCommitted("kv", "put", "x", "y"); err == nil {
		t.Error("SubmitCommitted worked without the protocol enabled")
	}
}

func TestHashCommitmentConcurrentClients(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp, HashCommitment: true, BlockSize: 6})
	done := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func(c int) {
			client, err := n.NewClient(fmt.Sprintf("cc%d", c))
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 8; i++ {
				if _, err := client.SubmitCommitted("kv", "put", fmt.Sprintf("k%d-%d", c, i), "v"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(c)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !n.WaitIdle(5 * time.Second) {
		t.Fatal("network did not go idle")
	}
}
