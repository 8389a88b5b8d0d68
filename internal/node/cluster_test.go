package node

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

const dialTimeout = 10 * time.Second

// within runs f and reports whether it returned within d, failing the test
// if it did not. The goroutine running f is left behind on failure.
func within(t *testing.T, d time.Duration, what string, f func()) bool {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		t.Errorf("%s did not return within %s", what, d)
		return false
	}
}

// closeAtCleanup closes a node when the test ends and fails the test if the
// close has not returned within 5 s: a lock held across a blocked send would
// otherwise hang the test binary until go test's timeout.
func closeAtCleanup(t *testing.T, what string, stop func()) {
	t.Cleanup(func() { within(t, 5*time.Second, "closing "+what, stop) })
}

// closeNow closes a node and fails the test now if the close returns an
// error or has not returned within 5 s.
func closeNow(t *testing.T, what string, close func() error) {
	t.Helper()
	var err error
	if !within(t, 5*time.Second, "closing "+what, func() { err = close() }) {
		t.FailNow()
	}
	if err != nil {
		t.Fatalf("closing %s: %v", what, err)
	}
}

// bootCluster starts an orderer and n peers on ephemeral 127.0.0.1 ports,
// registering cleanup. It returns the running nodes. A tune function may
// adjust the orderer's config before it starts; the peers take its Rescue.
func bootCluster(t *testing.T, system sched.System, n int, tune ...func(*OrdererConfig)) (*Orderer, []*Peer) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i)
	}
	cfg := OrdererConfig{
		Options: orderer.Options{
			System:       system,
			BlockSize:    10,
			BlockTimeout: 25 * time.Millisecond,
		},
		Listen:    "127.0.0.1:0",
		PeerNames: names,
	}
	for _, f := range tune {
		f(&cfg)
	}
	ord, err := StartOrderer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the orderer", func() { ord.Close() })
	peers := make([]*Peer, n)
	for i := range peers {
		p, err := StartPeer(PeerConfig{
			Name:         names[i],
			Listen:       "127.0.0.1:0",
			OrdererAddrs: []string{ord.Addr()},
			System:       system,
			PeerNames:    names,
			Rescue:       cfg.Rescue,
		})
		if err != nil {
			t.Fatal(err)
		}
		closeAtCleanup(t, "a peer", func() { p.Close() })
		peers[i] = p
	}
	return ord, peers
}

func peerAddrs(peers []*Peer) []string {
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = p.Addr()
	}
	return addrs
}

// driveContended pushes txs contended read-modify-writes over hotKeys
// counters through the cluster: client endorses everything first (so many
// transactions share a snapshot — real contention), then a few lanes — a
// Client carries one submit at a time — submit them side by side, so blocks
// fill with conflicting transactions.
func driveContended(t *testing.T, client *Client, txs, hotKeys int) (committed, aborted int) {
	t.Helper()
	endorsed := make(chan *protocol.Transaction, txs)
	for i := 0; i < txs; i++ {
		tx, err := client.Endorse("kv", "rmw", fmt.Sprintf("counter%d", i%hotKeys), "1")
		if err != nil {
			t.Fatalf("endorse %d: %v", i, err)
		}
		endorsed <- tx
	}
	close(endorsed)
	addrs := make([]string, len(client.peers))
	for i, p := range client.peers {
		addrs[i] = p.RemoteAddr()
	}
	const lanes = 8
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		lane, err := DialClient(fmt.Sprintf("%s-lane%d", client.name, l), client.ordererAddrs, addrs, dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer lane.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tx := range endorsed {
				res, err := lane.SubmitTx(tx)
				if err != nil {
					t.Errorf("submit %s: %v", tx.ID, err)
					return
				}
				mu.Lock()
				if res.Code == protocol.Valid {
					committed++
				} else {
					aborted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return committed, aborted
}

// awaitConvergence polls every peer until it reaches the orderer's sealed
// chain, then asserts bit-identical tips and identical state fingerprints.
func awaitConvergence(t *testing.T, ord *Orderer, peerAddrs []string) {
	t.Helper()
	ordStatus, err := StatusAt(ord.Addr(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	statuses := make([]wire.Status, len(peerAddrs))
	for i, addr := range peerAddrs {
		for {
			st, err := StatusAt(addr, dialTimeout)
			if err != nil {
				t.Fatalf("peer %d status: %v", i, err)
			}
			if st.Blocks >= ordStatus.Blocks {
				statuses[i] = st
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %d stuck at %d/%d blocks (orderer err: %v)",
					i, st.Blocks, ordStatus.Blocks, ord.Err())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, st := range statuses {
		if !bytes.Equal(st.TipHash, ordStatus.TipHash) {
			t.Fatalf("peer %d tip hash %x diverges from orderer %x", i, st.TipHash, ordStatus.TipHash)
		}
		if st.Blocks != ordStatus.Blocks {
			t.Fatalf("peer %d has %d blocks, orderer %d", i, st.Blocks, ordStatus.Blocks)
		}
		if st.StateHash != statuses[0].StateHash {
			t.Fatalf("peer %d state fingerprint diverges from peer 0", i)
		}
	}
}

// TestClusterConvergenceAllSystems is the tentpole assertion: a
// 1-orderer/3-peer cluster wired over real TCP sockets, driven with a
// contended workload under each of the five systems, must leave every peer
// with a bit-identical chain (tip hash) and identical state (height and
// fingerprint) — serialization, framing, and delivery included.
func TestClusterConvergenceAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system TCP cluster is not a -short test")
	}
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			ord, peers := bootCluster(t, system, 3)
			client, err := DialClient("loadgen", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			committed, aborted := driveContended(t, client, 90, 4)
			if committed == 0 {
				t.Fatalf("nothing committed (%d aborted)", aborted)
			}
			t.Logf("%s: %d committed, %d aborted", system, committed, aborted)
			awaitConvergence(t, ord, peerAddrs(peers))
			if err := ord.Err(); err != nil {
				t.Fatalf("orderer failed: %v", err)
			}
			for i, p := range peers {
				if err := p.Err(); err != nil {
					t.Fatalf("peer %d failed: %v", i, err)
				}
			}
		})
	}
}

// TestClusterSealedVerdictsTravel pins that blocks arriving over the wire
// still carry the orderer's sealed verdicts and that peers assert against
// them (the byte-equality contract of the commit pipeline): a subscriber
// reads every block off the wire with the orderer's verdicts on it, and a
// cluster run ends with every peer healthy on the orderer's tip and tally.
// Peers keep no blocks; each committer asserted its verdicts against the
// sealed ones as it committed (commit.AssertVerdictsEqual, and
// TestCommitterFailsOnAMutatedSealedVerdict that a mismatch fails it).
func TestClusterSealedVerdictsTravel(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2)
	client, err := DialClient("verdicts", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	driveContended(t, client, 40, 2)
	awaitConvergence(t, ord, peerAddrs(peers))
	ordChain := ord.Chain()
	conn, err := transport.Dial(ord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(wire.MsgSubscribe, wire.EncodeSubscribe(wire.Subscribe{From: 0})); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= uint64(ordChain.Len()); n++ {
		typ, payload, err := conn.Recv()
		if err != nil || typ != wire.MsgBlock {
			t.Fatalf("block %d: received %v (%v)", n, typ, err)
		}
		got, err := wire.DecodeBlock(payload)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ordChain.Get(n)
		if got.Header.Number != n || got.Validation == nil || len(got.Validation) != len(want.Validation) {
			t.Fatalf("block %d arrived as block %d with %d verdicts, sealed with %d", n, got.Header.Number, len(got.Validation), len(want.Validation))
		}
		for i := range got.Validation {
			if got.Validation[i] != want.Validation[i] {
				t.Fatalf("block %d tx %d: verdict %v on the wire, %v sealed", n, i, got.Validation[i], want.Validation[i])
			}
		}
	}
	wn, wtip, wcommitted := ordChain.Status()
	for i, p := range peers {
		if err := p.Err(); err != nil {
			t.Fatalf("peer %d failed: %v", i, err)
		}
		if n, tip, committed := p.Tip().Status(); n != wn || !bytes.Equal(tip, wtip) || committed != wcommitted {
			t.Fatalf("peer %d stands at block %d (tip %x, %d committed); the orderer sealed %d (tip %x, %d committed)",
				i, n, tip, committed, wn, wtip, wcommitted)
		}
	}
}
