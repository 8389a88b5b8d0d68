package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/transport/transporttest"
)

func newNet(t *testing.T, opts Options) *Network {
	t.Helper()
	if opts.BlockSize == 0 {
		opts.BlockSize = 5
	}
	if opts.BlockTimeout == 0 {
		opts.BlockTimeout = 50 * time.Millisecond
	}
	if opts.Ordering == nil {
		// The in-process broker NewNetwork would build anyway, kept
		// reachable: it retains the stream assertOrderersAgree replays.
		opts.Ordering = consensus.NewKafka()
	}
	n, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestEndToEndPutGet(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp})
	client, err := n.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.MustSubmit("kv", "put", "greeting", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if res.Block == 0 {
		t.Error("committed transaction has no block")
	}
	val, err := client.Query("kv", "get", "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "hello" {
		t.Errorf("query = %q", val)
	}
}

func TestAllSystemsEndToEnd(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{System: system})
			client, err := n.NewClient("c")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if _, err := client.MustSubmit("kv", "put", fmt.Sprintf("k%d", i), "v"); err != nil {
					t.Fatal(err)
				}
			}
			// Every peer converged to the same state and chain.
			tip := n.Peer(0).Chain().TipHash()
			fp := n.Peer(0).State().StateFingerprint()
			for i := 1; i < 4; i++ {
				if !bytes.Equal(n.Peer(i).Chain().TipHash(), tip) {
					t.Errorf("peer %d chain diverged", i)
				}
				if n.Peer(i).State().StateFingerprint() != fp {
					t.Errorf("peer %d state diverged", i)
				}
				if err := n.Peer(i).Chain().Verify(); err != nil {
					t.Errorf("peer %d chain: %v", i, err)
				}
			}
		})
	}
}

func TestOrdererAgreement(t *testing.T) {
	// Section 3.5: replicated orderers running the deterministic reordering
	// over the same consensus stream produce identical ledgers.
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				client.Submit("kv", "rmw", fmt.Sprintf("acct%d", i%5), "1")
			}
		}(w)
	}
	wg.Wait()
	if !n.WaitIdle(5 * time.Second) {
		t.Fatal("network did not go idle")
	}
	if n.OrdererChain().TipHash() == nil {
		t.Fatal("no blocks sealed")
	}
	assertOrderersAgree(t, n)
}

func TestSmallbankTransfersConserveMoney(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("bank")
	for _, id := range []string{"a", "b", "c"} {
		if _, err := client.MustSubmit("smallbank", "create_account", id, "100", "100"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	pairs := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				client.Submit("smallbank", "send_payment", pairs[w][0], pairs[w][1], "1")
			}
		}(w)
	}
	wg.Wait()
	n.WaitIdle(5 * time.Second)

	total := 0
	for _, id := range []string{"a", "b", "c"} {
		raw, err := client.Query("smallbank", "query", id)
		if err != nil {
			t.Fatal(err)
		}
		var acct struct{ Checking, Savings int }
		if err := json.Unmarshal(raw, &acct); err != nil {
			t.Fatalf("query payload %q: %v", raw, err)
		}
		total += acct.Checking + acct.Savings
	}
	if total != 600 {
		t.Errorf("money not conserved: total = %d want 600", total)
	}
}

func TestConflictingTransactionsAbortButSerialize(t *testing.T) {
	// Hammer one hot key with read-modify-writes from many goroutines: some
	// abort (cycles), but the final counter equals the number of COMMITTED
	// increments — serializability, observably.
	n := newNet(t, Options{System: sched.SystemSharp, BlockSize: 8})
	client, _ := n.NewClient("c")
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := client.Submit("kv", "rmw", "hot", "1")
				if err == nil && res.Committed() {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	n.WaitIdle(5 * time.Second)
	raw, err := client.Query("kv", "get", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != fmt.Sprint(committed) {
		t.Errorf("counter = %s, committed increments = %d", raw, committed)
	}
	if committed == 0 {
		t.Error("everything aborted")
	}
}

func TestDuplicateTxRejected(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemFabric})
	client, _ := n.NewClient("c")
	id, ch, err := client.SubmitAsync("kv", "put", "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !res.Committed() {
		t.Fatalf("first submission aborted: %v", res.Code)
	}
	_ = id
}

func TestUnknownContractFailsAtEndorsement(t *testing.T) {
	n := newNet(t, Options{})
	client, _ := n.NewClient("c")
	if _, err := client.Submit("nonexistent", "fn"); err == nil {
		t.Error("unknown contract accepted")
	}
	if _, err := client.Query("nonexistent", "fn"); err == nil {
		t.Error("unknown contract query accepted")
	}
}

func TestFailingInvocationRejected(t *testing.T) {
	n := newNet(t, Options{})
	client, _ := n.NewClient("c")
	// Overdraft fails during simulation: no endorsement, submit errors.
	if _, err := client.MustSubmit("smallbank", "create_account", "x", "10", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit("smallbank", "query", "ghost"); err == nil {
		t.Error("simulation failure not surfaced")
	}
}

func TestSupplyChainScenario(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("logistics")
	steps := [][]string{
		{"register", "crate-1", "acme", "shenzhen"},
		{"ship", "crate-1", "singapore"},
		{"inspect", "crate-1", "ok"},
		{"transfer", "crate-1", "globex"},
	}
	for _, s := range steps {
		if _, err := client.MustSubmit("supplychain", s[0], s[1:]...); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	raw, err := client.Query("supplychain", "track", "crate-1")
	if err != nil {
		t.Fatal(err)
	}
	var item struct{ Owner, Location string }
	if err := json.Unmarshal(raw, &item); err != nil {
		t.Fatal(err)
	}
	if item.Owner != "globex" || item.Location != "singapore" {
		t.Errorf("item = %+v", item)
	}
}

func TestVanillaFabricAbortsStaleReads(t *testing.T) {
	// With vanilla Fabric, concurrent rmw's on one key mostly MVCC-abort;
	// the aborts must be reported as MVCCConflict (not silently dropped).
	n := newNet(t, Options{System: sched.SystemFabric, BlockSize: 10})
	client, _ := n.NewClient("c")
	var wg sync.WaitGroup
	var aborted int64
	var mu sync.Mutex
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := client.Submit("kv", "rmw", "contended", "1")
				if err == nil && res.Code == protocol.MVCCConflict {
					mu.Lock()
					aborted++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if aborted == 0 {
		t.Error("no MVCC aborts under heavy contention — suspicious")
	}
}

// TestRaftConsensusBackend orders through the one Raft the repository has:
// three transport.RaftService members on loopback sockets, the leader's
// service injected through Options.Ordering. The schedulers are oblivious to
// the backend, and every member's log commits what the network ordered.
func TestRaftConsensusBackend(t *testing.T) {
	var members []*transport.RaftService
	transporttest.BootOnFreePorts(t, 3, func(addrs []string) error {
		members = nil
		for i, addr := range addrs {
			m, err := transport.StartRaft(transport.RaftConfig{
				ID: addr, Cluster: addrs, ElectionTimeout: 100 * time.Millisecond, Seed: int64(i + 1),
			})
			if err != nil {
				for _, started := range members {
					started.Close()
				}
				return err
			}
			members = append(members, m)
		}
		return nil
	})
	for _, m := range members {
		t.Cleanup(m.Close) // idempotent: the network also closes the leader's
	}
	var leader *transport.RaftService
	for deadline := time.Now().Add(10 * time.Second); leader == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no raft leader elected")
		}
		for _, m := range members {
			if m.IsLeader() {
				leader = m
			}
		}
	}

	n := newNet(t, Options{System: sched.SystemSharp, Ordering: leader})
	client, err := n.NewClient("raft-client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := client.MustSubmit("kv", "put", fmt.Sprintf("r%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(n.Peer(0).Chain().TipHash(), n.Peer(1).Chain().TipHash()) {
		t.Error("peers diverged under raft ordering")
	}
	// Followers replicate the stream the network sealed from: a second
	// process consuming any member would derive the same blocks.
	want := leader.CommitIndex()
	if want < 10 {
		t.Fatalf("leader committed %d entries for 10 transactions", want)
	}
	for i, m := range members {
		for deadline := time.Now().Add(10 * time.Second); m.CommitIndex() < want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("member %d stuck at commit %d, leader at %d", i, m.CommitIndex(), want)
			}
		}
	}
}
