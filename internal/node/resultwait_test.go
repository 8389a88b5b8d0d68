package node

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/fabric"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// parkedWaiters counts the result requests parked on o.
func parkedWaiters(o *Orderer) int {
	o.results.mu.Lock()
	defer o.results.mu.Unlock()
	n := 0
	for _, ws := range o.results.waiters {
		n += len(ws)
	}
	return n
}

// awaitParked waits until exactly want result requests are parked on o.
func awaitParked(t *testing.T, o *Orderer, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parkedWaiters(o) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d result requests parked, want %d", parkedWaiters(o), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// ordererHandlers counts the goroutines serving an orderer connection.
func ordererHandlers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "node.(*Orderer).handle(")
}

// startLoneOrderer boots an orderer with no peer process behind it: enough
// to serve result requests.
func startLoneOrderer(t *testing.T) *Orderer {
	t.Helper()
	ord, err := StartOrderer(OrdererConfig{
		Options: orderer.Options{
			System: sched.SystemSharp,
		},
		Listen:    "127.0.0.1:0",
		PeerNames: []string{"peer0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ord.Close() })
	return ord
}

// requestResult makes one raw result request on conn.
func requestResult(conn *transport.Conn, id string) (wire.Result, error) {
	typ, resp, err := conn.Call(wire.MsgResultPoll, []byte(id))
	if err != nil {
		return wire.Result{}, err
	}
	if typ != wire.MsgResult {
		return wire.Result{}, fmt.Errorf("answered with %v", typ)
	}
	return wire.DecodeResult(resp)
}

// sealedVerdict finds id's verdict on chain.
func sealedVerdict(chain *ledger.Chain, id string) (code protocol.ValidationCode, block uint64, ok bool) {
	chain.ForEach(func(blk *ledger.Block) bool {
		for i, tx := range blk.Transactions {
			if string(tx.ID) == id {
				code, block, ok = blk.Validation[i], blk.Header.Number, true
				return false
			}
		}
		return true
	})
	return code, block, ok
}

// TestResultStoreKeepsTheOriginalsVerdict pins the store's contract: a
// replay's AbortDuplicate neither answers nor wakes a request, whether it
// arrives before or after the original's verdict.
func TestResultStoreKeepsTheOriginalsVerdict(t *testing.T) {
	r := newResultStore()
	r.put(fabric.TxResult{TxID: "tx", Code: protocol.AbortDuplicate})
	_, parked := r.getOrPark("tx")
	if parked == nil {
		t.Fatal("a replay's AbortDuplicate was published as the transaction's fate")
	}
	r.put(fabric.TxResult{TxID: "tx", Code: protocol.AbortDuplicate})
	select {
	case res := <-parked:
		t.Fatalf("a replay's AbortDuplicate woke the waiter with %v", res.Code)
	default:
	}
	r.put(fabric.TxResult{TxID: "tx", Code: protocol.Valid, Block: 7})
	if res := <-parked; res.Code != protocol.Valid || res.Block != 7 {
		t.Fatalf("woken with %v in block %d, want the sealed verdict", res.Code, res.Block)
	}
	r.put(fabric.TxResult{TxID: "tx", Code: protocol.AbortDuplicate})
	if res, parked := r.getOrPark("tx"); parked != nil || res.Code != protocol.Valid {
		t.Fatalf("a later replay replaced the sealed verdict with %v", res.Code)
	}
	if r.unpark("tx", make(chan fabric.TxResult)) {
		t.Fatal("unpark withdrew a waiter that was never parked")
	}
}

// TestReplayBeforeTheCutGetsTheSealedVerdict is the regression for a replay
// racing its original: the same endorsed transaction is ordered twice
// before the block is cut, so the orderer resolves the second copy
// AbortDuplicate while the first is still pending. The one result request
// must come back with what the ledger records.
func TestReplayBeforeTheCutGetsTheSealedVerdict(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 1, func(c *OrdererConfig) {
		c.BlockTimeout = 100 * time.Millisecond
	})
	client, err := DialClient("replayer", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tx, err := client.Endorse("kv", "put", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := client.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.WaitResult(string(tx.ID))
	if err != nil {
		t.Fatal(err)
	}
	code, block, ok := sealedVerdict(ord.Chain(), string(tx.ID))
	if !ok {
		t.Fatalf("got %v for a transaction the ledger does not hold", res.Code)
	}
	if res.Code != code || res.Block != block {
		t.Fatalf("got %v in block %d, ledger records %v in block %d", res.Code, res.Block, code, block)
	}
}

// TestOrdererCloseReleasesParkedRequests: closing an orderer with result
// requests parked on it returns long before their bound, answers or
// disconnects every one of them, and leaves no goroutine behind.
func TestOrdererCloseReleasesParkedRequests(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ord := startLoneOrderer(t)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		conn, err := transport.Dial(ord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := requestResult(conn, fmt.Sprintf("never-%d", i)); err == nil && res.Found {
				t.Errorf("request %d answered with a verdict for an unknown transaction", i)
			}
		}(i)
	}
	awaitParked(t, ord, n)
	start := time.Now()
	ord.Close()
	if took := time.Since(start); took > resultWaitBound/2 {
		t.Fatalf("Close took %v with %d requests parked (bound %v)", took, n, resultWaitBound)
	}
	wg.Wait()
	if left := parkedWaiters(ord); left != 0 {
		t.Fatalf("%d waiters still registered after Close", left)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the orderer started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParkedRequestOfADeadClientIsReclaimed: a handler does not read its
// connection while parked, so it cannot see the client go; the bound is what
// frees it.
func TestParkedRequestOfADeadClientIsReclaimed(t *testing.T) {
	ord := startLoneOrderer(t)
	conn, err := transport.Dial(ord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgResultPoll, []byte("never")); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, ord, 1)
	conn.Close()
	if n := ordererHandlers(); n != 1 {
		t.Fatalf("%d handlers while one request is parked", n)
	}
	for deadline := time.Now().Add(resultWaitBound + 5*time.Second); ordererHandlers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("handler of a dead client still parked %v past the bound", 5*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if left := parkedWaiters(ord); left != 0 {
		t.Fatalf("%d waiters still registered after the bound", left)
	}
}

// TestResolvedResultIsAnsweredWithoutParking: a verdict stored before the
// request arrives (a pre-ordering abort resolves at arrival, ahead of the
// client's request) is answered at once.
func TestResolvedResultIsAnsweredWithoutParking(t *testing.T) {
	ord := startLoneOrderer(t)
	ord.results.put(fabric.TxResult{TxID: "early", Code: protocol.AbortStaleSnapshot})
	if _, parked := ord.results.getOrPark("early"); parked != nil {
		t.Fatal("a resolved transaction parked its request")
	}
	conn, err := transport.Dial(ord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	res, err := requestResult(conn, "early")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Code != protocol.AbortStaleSnapshot {
		t.Fatalf("got found=%v code=%v, want the stored abort", res.Found, res.Code)
	}
	if took := time.Since(start); took > resultWaitBound/2 {
		t.Fatalf("answer took %v: the request parked", took)
	}
}

// TestOneBlockWakesEveryParkedRequest parks 64 clients on transactions of
// one block and seals it with a 65th: every one is woken with its own
// sealed verdict.
func TestOneBlockWakesEveryParkedRequest(t *testing.T) {
	const n = 64
	ord, peers := bootCluster(t, sched.SystemSharp, 1, func(c *OrdererConfig) {
		c.BlockSize = n + 1
		c.BlockTimeout = time.Minute // only the size cut may seal the block
	})
	dial := func(name string) *Client {
		c, err := DialClient(name, []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	results := make([]wire.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client := dial(fmt.Sprintf("waiter%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.Submit("kv", "put", fmt.Sprintf("key%d", i), "v")
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	awaitParked(t, ord, n)
	if _, err := dial("sealer").Submit("kv", "put", "last", "v"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	chain := ord.Chain()
	for i, res := range results {
		code, block, ok := sealedVerdict(chain, res.TxID)
		if !ok || !res.Found || res.Code != code || res.Block != block || block != 1 {
			t.Fatalf("waiter %d got found=%v %v in block %d; ledger: held=%v %v in block %d",
				i, res.Found, res.Code, res.Block, ok, code, block)
		}
	}
}

// TestCommittedSubmitCostsTheOrdererTwoRequests pins the property the
// parked wait exists for: a committed Client.Submit reaches the orderer as
// exactly one submit and one result request. The frames are counted by a
// relay the client dials in the orderer's place.
func TestCommittedSubmitCostsTheOrdererTwoRequests(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2, func(c *OrdererConfig) {
		c.BlockTimeout = 50 * time.Millisecond
	})
	var mu sync.Mutex
	served := map[wire.MsgType]int{}
	relay, err := transport.Listen("127.0.0.1:0", func(down *transport.Conn) {
		up, err := transport.Dial(ord.Addr())
		if err != nil {
			return
		}
		defer up.Close()
		for {
			typ, payload, err := down.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			served[typ]++
			mu.Unlock()
			typ, payload, err = up.Call(typ, payload)
			if err != nil || down.Send(typ, payload) != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	client, err := DialClient("budget", []string{relay.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const txs = 5
	for i := 0; i < txs; i++ {
		res, err := client.Submit("kv", "put", fmt.Sprintf("key%d", i), "v")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Code.Committed() {
			t.Fatalf("submit %d: %v", i, res.Code)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != 2 || served[wire.MsgSubmit] != txs || served[wire.MsgResultPoll] != txs {
		t.Fatalf("%d committed submits cost the orderer %v, want %d %v and %d %v",
			txs, served, txs, wire.MsgSubmit, txs, wire.MsgResultPoll)
	}
}
