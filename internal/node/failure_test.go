package node

import (
	"bytes"
	"testing"
	"time"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestPeerRestartCatchesUp kills a peer process mid-run, keeps traffic
// flowing, then boots a replacement with the same identity: the newcomer
// must replay the whole chain over the wire (the subscription's catch-up
// path) and land bit-identical with the surviving peer.
func TestPeerRestartCatchesUp(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2)
	client, err := DialClient("restart", []string{ord.Addr()}, []string{peers[0].Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	driveContended(t, client, 30, 2)

	// Take peer1 down mid-stream and keep committing without it.
	closeNow(t, "peer1", peers[1].Close)
	driveContended(t, client, 30, 2)

	// A replacement peer1 starts empty and must catch up from block 1.
	reborn, err := StartPeer(PeerConfig{
		Name:         "peer1",
		Listen:       "127.0.0.1:0",
		OrdererAddrs: []string{ord.Addr()},
		System:       sched.SystemSharp,
		PeerNames:    []string{"peer0", "peer1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the restarted peer", func() { reborn.Close() })

	awaitConvergence(t, ord, []string{peers[0].Addr(), reborn.Addr()})
	if !bytes.Equal(reborn.Tip().TipHash(), peers[0].Tip().TipHash()) {
		t.Fatal("reborn peer's chain diverges from the survivor's")
	}
	if reborn.State().StateFingerprint() != peers[0].State().StateFingerprint() {
		t.Fatal("reborn peer's state diverges from the survivor's")
	}
}

// TestDurablePeerResumesFromItsStore restarts a -data-dir peer on its own
// directory: it starts at the block its store holds (chain tip and state
// height are one number there), subscribes just above it, and converges —
// over the wire it pulls only the blocks sealed while it was down. The
// fabric row runs MVCC validation with rescue on (the fabricnode default):
// blocks on both sides of the restart carry Rescued verdicts, and the blocks
// sealed while the peer was down read versions written before it stopped,
// so the reopened store's versions and values decide verdicts and rescue
// digests the peer must byte-match.
func TestDurablePeerResumesFromItsStore(t *testing.T) {
	for _, system := range []sched.System{sched.SystemSharp, sched.SystemFabric} {
		t.Run(string(system), func(t *testing.T) { durablePeerResumes(t, system, system == sched.SystemFabric) })
	}
}

func durablePeerResumes(t *testing.T, system sched.System, rescue bool) {
	ord, peers := bootCluster(t, system, 2, func(cfg *OrdererConfig) { cfg.Rescue = rescue })
	client, err := DialClient("durable", []string{ord.Addr()}, []string{peers[0].Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// peer1 of the cluster steps aside for a durable peer1.
	closeNow(t, "peer1", peers[1].Close)
	cfg := PeerConfig{
		Name:         "peer1",
		Listen:       "127.0.0.1:0",
		OrdererAddrs: []string{ord.Addr()},
		System:       system,
		PeerNames:    []string{"peer0", "peer1"},
		DataDir:      t.TempDir(),
		Rescue:       rescue,
	}
	first, err := StartPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the first durable peer", func() { first.Close() })
	if first.ResumedAt() != 0 {
		t.Fatalf("fresh store resumed at block %d", first.ResumedAt())
	}
	driveContended(t, client, 30, 2)
	awaitConvergence(t, ord, []string{peers[0].Addr(), first.Addr()})
	stored := first.State().Height()
	closeNow(t, "the first durable peer", first.Close)
	driveContended(t, client, 30, 2)

	second, err := StartPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the reopened durable peer", func() { second.Close() })
	if second.ResumedAt() != stored || stored == 0 {
		t.Fatalf("restart resumed at block %d, the store was closed at %d", second.ResumedAt(), stored)
	}
	awaitConvergence(t, ord, []string{peers[0].Addr(), second.Addr()})
	if second.State().Height() <= stored {
		t.Fatalf("no block sealed while the peer was down (height %d)", second.State().Height())
	}
	if second.State().StateFingerprint() != peers[0].State().StateFingerprint() {
		t.Fatal("restarted peer's state diverges from the survivor's")
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
	if !rescue {
		return
	}
	// Where the restart landed: Rescued verdicts before and after it, and
	// after it a transaction committed on a version the store held. The
	// peer keeps no blocks; its store does.
	closeNow(t, "the reopened durable peer", second.Close)
	store, err := kvstore.Open(kvstore.Options{Dir: cfg.DataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	chain, err := ledger.NewChain(store)
	if err != nil {
		t.Fatal(err)
	}
	// Each block's record is the frame the orderer streamed, as received.
	for n := uint64(1); n <= uint64(chain.Len()); n++ {
		rec, _, err := chain.Frame(n)
		sent, _, _ := ord.Chain().Frame(n)
		if err != nil || !bytes.Equal(rec, sent) {
			t.Fatalf("block %d: the stored record is not the frame the orderer sent (%v)", n, err)
		}
	}
	var rescuedBefore, rescuedAfter, oldReads int
	chain.ForEach(func(b *ledger.Block) bool {
		for i, code := range b.Validation {
			switch {
			case code == protocol.Rescued && b.Header.Number <= stored:
				rescuedBefore++
			case code == protocol.Rescued:
				rescuedAfter++
			case code == protocol.Valid && b.Header.Number > stored:
				for _, r := range b.Transactions[i].RWSet.Reads {
					if r.Version.Block > 0 && r.Version.Block <= stored {
						oldReads++
					}
				}
			}
		}
		return true
	})
	if rescuedBefore == 0 || rescuedAfter == 0 || oldReads == 0 {
		t.Fatalf("restart at block %d is not between rescued blocks (%d before, %d after) with pre-restart reads after it (%d)",
			stored, rescuedBefore, rescuedAfter, oldReads)
	}
}

// TestOrdererCloseFailsInFlightSubmits pins the listener-shutdown contract:
// clients with submits in flight get errors within their retry budget —
// never a hang. (SubmitTx retries across failovers, so with the only
// orderer gone the error arrives when SubmitTimeout expires.)
func TestOrdererCloseFailsInFlightSubmits(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2)
	client, err := DialClient("inflight", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SubmitTimeout = 2 * time.Second

	// Pre-endorse so the submit loop needs only the orderer.
	tx, err := client.Endorse("kv", "put", "k", "v")
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, err := client.SubmitTx(tx); err != nil {
				errCh <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let some submits land
	closeNow(t, "the orderer", ord.Close)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("submit after orderer close reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit loop hung after orderer close")
	}
}

// TestNodeDoubleCloseIdempotence: closing any node (or the client) twice is
// safe and returns promptly.
func TestNodeDoubleCloseIdempotence(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemFabric, 2)
	client, err := DialClient("dc", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			for _, p := range peers {
				if err := p.Close(); err != nil {
					t.Errorf("peer close #%d: %v", i+1, err)
				}
			}
			if err := ord.Close(); err != nil {
				t.Errorf("orderer close #%d: %v", i+1, err)
			}
			client.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("double close hung")
	}
}
