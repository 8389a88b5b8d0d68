// Package fabric_test holds the end-to-end tests of the library network
// (node.NewNetwork): agreement across peers and orderers, conservation,
// serializability, security and range queries. The directory has no
// non-test code; the peer these tests drive is node.Peer.
package fabric_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// testNet is a library network with the options it was built from, defaults
// filled in: the replay and tip checks below need both.
type testNet struct {
	*node.Network
	opts node.NetworkOptions
}

func newNet(t *testing.T, opts node.NetworkOptions) *testNet {
	t.Helper()
	if opts.BlockSize == 0 {
		opts.BlockSize = 5
	}
	if opts.BlockTimeout == 0 {
		opts.BlockTimeout = 50 * time.Millisecond
	}
	if opts.Peers == 0 {
		opts.Peers = 4
	}
	n, err := node.NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return &testNet{n, opts}
}

// wireClient dials a wire client to n for transactions no library client
// would send: it submits whatever it is handed.
func wireClient(t *testing.T, n *testNet, name string) *node.Client {
	t.Helper()
	c, err := n.DialClient(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestEndToEndPutGet(t *testing.T) {
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
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
			n := newNet(t, node.NetworkOptions{System: system})
			client, err := n.NewClient("c")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if _, err := client.MustSubmit("kv", "put", fmt.Sprintf("k%d", i), "v"); err != nil {
					t.Fatal(err)
				}
			}
			// Every peer converged to the same state and to the tip of a
			// sound chain.
			if !n.WaitIdle(10 * time.Second) {
				t.Fatalf("network did not go idle (err=%v)", n.Err())
			}
			if err := n.OrdererChain().Verify(); err != nil {
				t.Fatal(err)
			}
			assertPeersOnTheOrderersTip(t, n)
			fp := n.Peer(0).State().StateFingerprint()
			for i := 1; i < 4; i++ {
				if n.Peer(i).State().StateFingerprint() != fp {
					t.Errorf("peer %d state diverged", i)
				}
			}
		})
	}
}

func TestOrdererAgreement(t *testing.T) {
	// Section 3.5: replicated orderers running the deterministic reordering
	// over the same consensus stream produce identical ledgers.
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
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
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
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
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp, BlockSize: 8})
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

// TestDuplicateTxRejected sends one endorsed transaction twice, the second
// time after its block sealed. The orderer drops the replay as a duplicate
// and answers it with the original's fate; the chain holds the TxID once.
func TestDuplicateTxRejected(t *testing.T) {
	n := newNet(t, node.NetworkOptions{System: sched.SystemFabric})
	c := wireClient(t, n, "c")
	tx, err := c.Endorse("kv", "put", "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.SubmitTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Code.Committed() || first.Block == 0 {
		t.Fatalf("first submission resolved as %+v", first)
	}
	again, err := c.SubmitTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Code != first.Code || again.Block != first.Block {
		t.Fatalf("the replay was answered %v in block %d; the original %v in block %d", again.Code, again.Block, first.Code, first.Block)
	}
	if !n.WaitIdle(5 * time.Second) {
		t.Fatalf("network did not go idle (err=%v)", n.Err())
	}
	held := 0
	n.OrdererChain().ForEach(func(b *ledger.Block) bool {
		for _, btx := range b.Transactions {
			if btx.ID == tx.ID {
				held++
			}
		}
		return true
	})
	if held != 1 {
		t.Fatalf("the chain holds %s %d times", tx.ID, held)
	}
}

func TestUnknownContractFailsAtEndorsement(t *testing.T) {
	n := newNet(t, node.NetworkOptions{})
	client, _ := n.NewClient("c")
	if _, err := client.Submit("nonexistent", "fn"); err == nil {
		t.Error("unknown contract accepted")
	}
	if _, err := client.Query("nonexistent", "fn"); err == nil {
		t.Error("unknown contract query accepted")
	}
}

func TestFailingInvocationRejected(t *testing.T) {
	n := newNet(t, node.NetworkOptions{})
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
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
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
	n := newNet(t, node.NetworkOptions{System: sched.SystemFabric, BlockSize: 10})
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
