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
	"fabricsharp/internal/transport/transporttest"
	"fabricsharp/internal/wire"
)

// startRaftOrderers boots n orderers forming one Raft cluster — client and
// Raft ports picked up front, a full redirect map, fast timers — registering
// cleanup. tune, when non-nil, adjusts member i's config before it starts. It
// returns the configs too: a test that kills a member restarts it from its
// own.
func startRaftOrderers(t *testing.T, system sched.System, n int, peerNames []string, tune func(i int, cfg *OrdererConfig)) ([]OrdererConfig, []*Orderer, []string) {
	t.Helper()
	var cfgs []OrdererConfig
	var ords []*Orderer
	transporttest.BootOnFreePorts(t, 2*n, func(addrs []string) error {
		clientAddrs, raftAddrs := addrs[:n], addrs[n:]
		redirects := make(map[string]string, n)
		for i := range raftAddrs {
			redirects[raftAddrs[i]] = clientAddrs[i]
		}
		cfgs, ords = make([]OrdererConfig, n), nil
		for i := range cfgs {
			cfgs[i] = OrdererConfig{
				Options: orderer.Options{
					System:       system,
					BlockSize:    10,
					BlockTimeout: 25 * time.Millisecond,
					Rescue:       true,
				},
				Listen:              clientAddrs[i],
				PeerNames:           peerNames,
				RaftID:              raftAddrs[i],
				RaftCluster:         raftAddrs,
				RaftRedirects:       redirects,
				RaftElectionTimeout: 100 * time.Millisecond,
			}
			if tune != nil {
				tune(i, &cfgs[i])
			}
			o, err := StartOrderer(cfgs[i])
			if err != nil {
				for _, started := range ords {
					started.Close()
				}
				return err
			}
			ords = append(ords, o)
		}
		return nil
	})
	addrs := make([]string, n)
	for i, o := range ords {
		t.Cleanup(func() { o.Close() })
		addrs[i] = o.Addr()
	}
	return cfgs, ords, addrs
}

// waitRaftLeader polls until one live orderer leads, returning its index.
func waitRaftLeader(t *testing.T, ords []*Orderer, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, o := range ords {
			if o != nil && o.Raft().IsLeader() {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no Raft leader elected")
	return -1
}

// driveCommitted pushes txs contended read-modify-writes through the
// cluster and returns how many the client observed committed (rescued
// counts — the ledger seals them as committed verdicts).
func driveCommitted(t *testing.T, client *Client, txs, hotKeys int) int {
	t.Helper()
	committed := 0
	for i := 0; i < txs; i++ {
		res, err := client.Submit("kv", "rmw", fmt.Sprintf("counter%d", i%hotKeys), "1")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Code.Committed() {
			committed++
		}
	}
	return committed
}

// bootRaftCluster starts a 3-orderer Raft cluster (Fabric#, rescue on) with
// two peers subscribed to all of it, registering cleanup. A tune function
// may adjust every orderer's config before it starts.
func bootRaftCluster(t *testing.T, tune ...func(*OrdererConfig)) (ords []*Orderer, ordererAddrs []string, peers []*Peer) {
	t.Helper()
	peerNames := []string{"peer0", "peer1"}
	_, ords, ordererAddrs = startRaftOrderers(t, sched.SystemSharp, 3, peerNames, func(_ int, cfg *OrdererConfig) {
		for _, f := range tune {
			f(cfg)
		}
	})
	peers = make([]*Peer, len(peerNames))
	for i, name := range peerNames {
		p, err := StartPeer(PeerConfig{
			Name:         name,
			Listen:       "127.0.0.1:0",
			OrdererAddrs: ordererAddrs,
			System:       sched.SystemSharp,
			PeerNames:    peerNames,
			Rescue:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
	}
	return ords, ordererAddrs, peers
}

// TestRaftClusterFailoverConvergence is the chaos smoke in miniature: a
// 3-orderer Raft cluster with 2 peers loses its leader mid-load; clients
// follow the NotLeader redirects, no committed transaction is lost, and the
// surviving orderers plus both peers end bit-identical.
func TestRaftClusterFailoverConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped Raft cluster is not a -short test")
	}
	ords, ordererAddrs, peers := bootRaftCluster(t)
	client, err := DialClient("chaos", ordererAddrs, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	committed := driveCommitted(t, client, 60, 4)

	// Kill the leader mid-load; the survivors hold a quorum.
	lead := waitRaftLeader(t, ords, 10*time.Second)
	ords[lead].Close()
	ords[lead] = nil

	committed += driveCommitted(t, client, 60, 4)
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	if waitRaftLeader(t, ords, 15*time.Second) == lead {
		t.Fatal("dead orderer still leads")
	}

	// Survivor agreement: bit-identical tips at equal heights, and the
	// replicated ledger accounts for every client-acknowledged commit.
	var survivors []*Orderer
	for _, o := range ords {
		if o != nil {
			survivors = append(survivors, o)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, b := survivors[0].Chain(), survivors[1].Chain()
		if a.Len() == b.Len() && bytes.Equal(a.TipHash(), b.TipHash()) && a.Len() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never agreed: %d/%x vs %d/%x", a.Len(), a.TipHash(), b.Len(), b.TipHash())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ledgerCommitted := survivors[0].Chain().CommittedTxs()
	if ledgerCommitted < uint64(committed) {
		t.Fatalf("lost committed transactions: clients saw %d, ledger holds %d", committed, ledgerCommitted)
	}

	// Both peers (whose subscriptions failed over) converge on the same
	// chain and state.
	awaitConvergence(t, survivors[0], peerAddrs(peers))
	if client.Redirects.Value() == 0 && peers[0].Failovers()+peers[1].Failovers() == 0 {
		t.Log("note: failover happened without redirects or resubscriptions (timing)")
	}
}

// TestRaftLeaderKillWithRequestsParked kills the leader while clients are
// parked on it, their submits quorum-committed and waiting for verdicts.
// Half of the transactions were sent twice — what a client does when a
// failover leaves it unsure its submit landed — so the log carries replays
// that resolve AbortDuplicate at arrival, ahead of the originals' block.
// Every client must send again to a survivor and get exactly what the
// survivors' ledger records: no accepted transaction lost or sealed twice,
// no replay's AbortDuplicate handed out.
func TestRaftLeaderKillWithRequestsParked(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped Raft cluster is not a -short test")
	}
	const n = 8
	ords, ordererAddrs, peers := bootRaftCluster(t, func(c *OrdererConfig) {
		// No cut before the kill: the block must still be open when the
		// leader dies, so every request is parked there.
		c.BlockSize = 4 * n
		c.BlockTimeout = time.Second
	})
	lead := waitRaftLeader(t, ords, 10*time.Second)
	results := make([]wire.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client, err := DialClient(fmt.Sprintf("parked%d", i), ordererAddrs, peerAddrs(peers), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		tx, err := client.Endorse("kv", "put", fmt.Sprintf("key%d", i), "v")
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			replay, err := transport.Dial(ords[lead].Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer replay.Close()
			if err := replay.Send(wire.MsgSubmit, wire.EncodeTransaction(tx)); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.SubmitTx(tx)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	awaitParked(t, ords[lead], n+n/2)
	ords[lead].Close()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, o := range ords {
		if i == lead {
			continue
		}
		chain := o.Chain()
		// The survivor that answered has sealed the block; give the other
		// one time to seal it too.
		for deadline := time.Now().Add(10 * time.Second); chain.Len() == 0 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		for c, res := range results {
			code, block, ok := sealedVerdict(chain, res.TxID)
			if !ok {
				t.Fatalf("orderer %d lost acked transaction %s", i, res.TxID)
			}
			if res.Code != code || res.Block != block {
				t.Fatalf("client %d got %v in block %d, orderer %d records %v in block %d",
					c, res.Code, res.Block, i, code, block)
			}
			if !code.Committed() {
				t.Fatalf("uncontended transaction %s sealed %v", res.TxID, code)
			}
		}
		if got := chain.CommittedTxs(); got != n {
			t.Fatalf("orderer %d committed %d transactions, want each of the %d once", i, got, n)
		}
	}
}

// TestFollowerAnswersSubmitAtOnce: a submit to a Raft follower is not
// accepted, so it is answered with the NotLeader redirect immediately and
// parks nothing.
func TestFollowerAnswersSubmitAtOnce(t *testing.T) {
	ords, _, _ := bootRaftCluster(t)
	lead := waitRaftLeader(t, ords, 10*time.Second)
	follower := ords[(lead+1)%len(ords)]
	conn, err := transport.Dial(follower.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	typ, resp, err := conn.Call(wire.MsgSubmit, wire.EncodeTransaction(&protocol.Transaction{ID: "misdirected"}))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeAck(resp)
	if typ != wire.MsgAck || err != nil || !ack.NotLeader || ack.Leader != ords[lead].Addr() {
		t.Fatalf("follower answered %v %+v (%v), want a NotLeader ack naming %s", typ, ack, err, ords[lead].Addr())
	}
	if took := time.Since(start); took > resultWaitBound/2 {
		t.Fatalf("the redirect took %v: the request parked", took)
	}
	if n := parkedWaiters(follower); n != 0 {
		t.Fatalf("%d requests parked on a follower that accepted nothing", n)
	}
}

// TestFollowerOrdererRestartCatchesUpUnderRaft is an orderer's one restart
// path: a follower orderer crashes, misses enough blocks that the max-span
// horizon prunes keys the stream wrote before the crash, restarts with its
// persisted term/vote and an empty log, catches up from the leader, and
// re-derives bit-identical blocks by re-folding the stream.
func TestFollowerOrdererRestartCatchesUpUnderRaft(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped Raft cluster is not a -short test")
	}
	peerNames := []string{"peer0"}
	cfgs, ords, ordererAddrs := startRaftOrderers(t, sched.SystemSharp, 3, peerNames, func(_ int, cfg *OrdererConfig) {
		cfg.BlockSize = 2
		cfg.MaxSpan = 4
		cfg.RaftDir = t.TempDir()
	})
	peer, err := StartPeer(PeerConfig{
		Name:         "peer0",
		Listen:       "127.0.0.1:0",
		OrdererAddrs: ordererAddrs,
		System:       sched.SystemSharp,
		PeerNames:    peerNames,
		Rescue:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	client, err := DialClient("epoch", ordererAddrs, []string{peer.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Churn through rotating keys so the horizon has keys to retire.
	for i := 0; i < 8; i++ {
		if _, err := client.Submit("kv", "put", fmt.Sprintf("g%d:k%d", i/4, i), "v1"); err != nil {
			t.Fatal(err)
		}
	}

	// Crash a follower (not the leader: the cluster must keep sealing).
	lead := waitRaftLeader(t, ords, 10*time.Second)
	down := (lead + 1) % len(ords)
	ords[down].Close()
	ords[down] = nil

	// Seal past the horizon while it is gone.
	for i := 0; i < 8; i++ {
		if _, err := client.Submit("kv", "put", fmt.Sprintf("h%d:k%d", i/4, i), "v2"); err != nil {
			t.Fatal(err)
		}
	}
	liveIdx := lead
	if ords[liveIdx] == nil {
		liveIdx = (down + 1) % len(ords)
	}
	want := ords[liveIdx].Chain()
	if want.Len() < 8 {
		t.Fatalf("sealed only %d blocks, need >= 8 (past the max-span horizon of 4)", want.Len())
	}

	// Restart with the same identity, ports, and state dir: the persisted
	// term survives, the log catches up over the wire, and the shadow
	// pipeline re-derives every block — the pruned ones included.
	reborn, err := StartOrderer(cfgs[down])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reborn.Close() })
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := reborn.Chain()
		if got.Len() >= want.Len() && bytes.Equal(got.TipHash(), want.TipHash()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted orderer stuck at %d/%d blocks (tip %x want %x)",
				got.Len(), want.Len(), got.TipHash(), want.TipHash())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for n := uint64(1); n <= uint64(want.Len()); n++ {
		wb, _ := want.Get(n)
		gb, ok := reborn.Chain().Get(n)
		if !ok {
			t.Fatalf("restarted orderer missing block %d", n)
		}
		if !bytes.Equal(wb.Hash(), gb.Hash()) {
			t.Fatalf("block %d diverges after the follower's restart", n)
		}
		for i := range wb.Validation {
			if wb.Validation[i] != gb.Validation[i] {
				t.Fatalf("block %d tx %d: verdict %v != %v", n, i, gb.Validation[i], wb.Validation[i])
			}
		}
	}
}
