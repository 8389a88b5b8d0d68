package node

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
)

// newTestNetwork boots a library network, closing it at cleanup.
func newTestNetwork(t *testing.T, opts NetworkOptions) *Network {
	t.Helper()
	n, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the network", n.Close)
	return n
}

// TestSubmitReadsBackOnEveryPeer pins read-your-writes across peers: once
// Submit returns Committed, a local read on each of the N peers sees the
// write, because the library client waits for every peer to commit the
// result's block.
func TestSubmitReadsBackOnEveryPeer(t *testing.T) {
	const peers = 4
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemFabric, Peers: peers, BlockSize: 3, BlockTimeout: 20 * time.Millisecond})
	c, err := n.NewClient("reader")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if _, err := c.MustSubmit("kv", "put", key, val); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < peers; p++ {
			if got, err := n.Peer(p).Query("kv", "get", key); err != nil || string(got) != val {
				t.Fatalf("peer %d reads %s = %q (%v) after its put committed", p, key, got, err)
			}
		}
	}
}

// TestStandaloneOrdererStatusNamesItself: a library network's orderer leads
// its group of one from the start, so its status carries a term and names a
// leader a client can dial — the orderer's own client address, not its Raft
// member ID.
func TestStandaloneOrdererStatusNamesItself(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{Peers: 1})
	addr := n.Orderer().Addr()
	st, err := StatusAt(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Term < 1 || st.Leader != addr {
		t.Fatalf("status has term %d and leader %q; want a term and leader %q", st.Term, st.Leader, addr)
	}
	if led, err := StatusAt(st.Leader, 5*time.Second); err != nil || led.Role != "orderer" {
		t.Fatalf("the named leader answers %+v (%v), want the orderer's status", led, err)
	}
}

// submitInFlight starts a Submit, returns once the orderer has admitted it
// to its open block, and reports on the channel what the Submit returned and
// how long it took.
func submitInFlight(t *testing.T, n *Network, c *NetworkClient) <-chan submitOutcome {
	t.Helper()
	done := make(chan submitOutcome, 1)
	start := time.Now()
	go func() {
		res, err := c.Submit("kv", "put", "k", "v")
		done <- submitOutcome{res, err, time.Since(start)}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, ev := range n.orderer.tracer.Dump().Events {
			if ev.Stage == trace.StageOrder {
				return done
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the submit never reached the orderer's open block")
		}
	}
}

type submitOutcome struct {
	res  TxResult
	err  error
	took time.Duration
}

// TestSubmitFailsWhenAPeerFails fails one peer, through the path a failed
// commit takes, while a Submit waits for its block. The orderer seals the
// block and the healthy peer commits it, but the failed peer never will: the
// Submit must return an error, within the result wait bound, and not the
// committed result.
func TestSubmitFailsWhenAPeerFails(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemSharp, Peers: 2, BlockSize: 100, BlockTimeout: 300 * time.Millisecond})
	c, err := n.NewClient("c")
	if err != nil {
		t.Fatal(err)
	}
	done := submitInFlight(t, n, c) // parked at the orderer until the timed cut
	n.peers[1].fail(errors.New("injected commit failure"))
	out := <-done
	if out.err == nil {
		t.Fatalf("Submit returned %+v though peer1 failed before committing it", out.res)
	}
	if out.took > resultWaitBound+time.Second {
		t.Fatalf("Submit took %s to fail", out.took)
	}
	if height, _ := n.Peer(1).Tip().Height(); height != 0 {
		t.Fatalf("the failed peer committed to block %d", height)
	}
	if n.Err() == nil {
		t.Fatal("the network reports no error with a failed peer")
	}
}

// TestSubmitFailsWhenTheNetworkCloses closes the network under a Submit
// whose transaction would never be cut: it must fail within the result
// wait bound.
func TestSubmitFailsWhenTheNetworkCloses(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemSharp, Peers: 2, BlockSize: 100, BlockTimeout: time.Hour})
	c, err := n.NewClient("c")
	if err != nil {
		t.Fatal(err)
	}
	done := submitInFlight(t, n, c)
	within(t, 5*time.Second, "Network.Close", n.Close)
	out := <-done
	if out.err == nil {
		t.Fatalf("Submit returned %+v from a closed network", out.res)
	}
	if out.took > resultWaitBound+time.Second {
		t.Fatalf("Submit took %s to fail", out.took)
	}
}

// TestNetworkRefusesADuplicateClientName: two clients of one name would mint
// the same TxIDs and dedup each other.
func TestNetworkRefusesADuplicateClientName(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{Peers: 1})
	if _, err := n.NewClient("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewClient("alice"); err == nil {
		t.Fatal("a second client named alice was enrolled")
	}
}

// TestTwoNetworksInOneProcess runs two networks side by side: each binds
// fresh in-memory names and commits its own transactions.
func TestTwoNetworksInOneProcess(t *testing.T) {
	for i := 0; i < 2; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			n := newTestNetwork(t, NetworkOptions{Peers: 2, BlockSize: 2, BlockTimeout: 20 * time.Millisecond})
			c, err := n.NewClient("same-name-in-both")
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 6; k++ {
				if _, err := c.MustSubmit("kv", "put", fmt.Sprint(k), fmt.Sprint(i)); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := c.Query("kv", "get", "5"); err != nil || string(got) != fmt.Sprint(i) {
				t.Fatalf("network %d reads %q (%v)", i, got, err)
			}
		})
	}
}

// TestOrdererRetainsNoDecodedTransaction pins that the orderer keeps each
// transaction as the bytes it arrived in: once a transaction's block has
// sealed and the scheduler's prune horizon has passed, the decoded
// transaction is reachable from nothing — not the Raft log, not the sealed
// chain. The transactions, each carrying a finalizer, enter where a
// submit's decode hands them to the ordering service.
func TestOrdererRetainsNoDecodedTransaction(t *testing.T) {
	const held, blockSize, maxSpan = 300, 10, 10
	n := newTestNetwork(t, NetworkOptions{Peers: 1, BlockSize: blockSize, BlockTimeout: 20 * time.Millisecond, MaxSpan: maxSpan})
	c, err := n.DialClient("retainer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var freed atomic.Int32
	submit := func(i int, watch bool) protocol.TxID {
		tx, err := c.Endorse("kv", "put", fmt.Sprintf("k%d", i), "v")
		if err != nil {
			t.Fatal(err)
		}
		if watch {
			runtime.SetFinalizer(tx, func(*protocol.Transaction) { freed.Add(1) })
		}
		if err := n.orderer.svc.Submit(consensus.Envelope{Tx: tx, SubmittedBy: tx.ClientID}); err != nil {
			t.Fatal(err)
		}
		return tx.ID
	}
	// A block at a time, so that each endorsement reads a recent snapshot.
	var res TxResult
	for i := 0; i < held; i++ {
		if id := submit(i, true); (i+1)%blockSize == 0 {
			var ok bool
			if res, ok = n.orderer.awaitResult(id); !ok || !res.Code.Committed() {
				t.Fatalf("watched transaction %s resolved %v (found %v), want committed", id, res.Code, ok)
			}
		}
	}
	// Seal the prune horizon's worth of blocks past the last watched one.
	chain := n.OrdererChain()
	for i := held; chain.Len() < int(res.Block)+maxSpan+2; i++ {
		if i == held+blockSize*(maxSpan+4) {
			t.Fatalf("chain at %d blocks after %d filler transactions, want %d", chain.Len(), i-held, int(res.Block)+maxSpan+2)
		}
		if _, ok := n.orderer.awaitResult(submit(i, false)); !ok {
			t.Fatal("a filler transaction did not resolve")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < held {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sealed transactions still reachable from the orderer", held-int(freed.Load()), held)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
