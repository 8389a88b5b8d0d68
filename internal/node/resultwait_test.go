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

// parkedWaiters counts the requests parked on o for a result.
func parkedWaiters(o *Orderer) int {
	o.results.mu.Lock()
	defer o.results.mu.Unlock()
	n := 0
	for _, ws := range o.results.waiters {
		n += len(ws)
	}
	return n
}

// awaitParked waits until exactly want requests are parked on o.
func awaitParked(t *testing.T, o *Orderer, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parkedWaiters(o) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked, want %d", parkedWaiters(o), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// ordererHandlers counts the goroutines serving an orderer connection.
func ordererHandlers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "node.(*Orderer).handle(")
}

// startLoneOrderer boots an orderer with no peer process behind it and no
// cut in reach: it accepts submits and seals nothing, so every one parks.
func startLoneOrderer(t *testing.T) *Orderer {
	t.Helper()
	ord, err := StartOrderer(OrdererConfig{
		Options: orderer.Options{
			System:       sched.SystemSharp,
			BlockSize:    1 << 20,
			BlockTimeout: time.Hour,
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

// submitFrame is the payload of a submit the orderer accepts (endorsements
// are checked at the cut, not at arrival).
func submitFrame(id string) []byte {
	return wire.EncodeTransaction(&protocol.Transaction{ID: protocol.TxID(id), ClientID: "raw"})
}

// callForResult makes one raw request on conn — a submit, or a bare result
// request for a TxID — and decodes the result it is answered with.
func callForResult(conn *transport.Conn, typ wire.MsgType, payload []byte) (wire.Result, error) {
	typ, resp, err := conn.Call(typ, payload)
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
// AbortDuplicate while the first is still pending. Both requests must come
// back with what the ledger records.
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
	replay, err := transport.Dial(ord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	replayed := make(chan wire.Result, 1)
	go func() {
		res, err := callForResult(replay, wire.MsgSubmit, wire.EncodeTransaction(tx))
		if err != nil {
			t.Errorf("replay: %v", err)
		}
		replayed <- res
	}()
	res, err := client.SubmitTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	code, block, ok := sealedVerdict(ord.Chain(), string(tx.ID))
	if !ok {
		t.Fatalf("got %v for a transaction the ledger does not hold", res.Code)
	}
	for _, got := range []wire.Result{res, <-replayed} {
		if got.Code != code || got.Block != block {
			t.Fatalf("got %v in block %d, ledger records %v in block %d", got.Code, got.Block, code, block)
		}
	}
	if n := ord.Chain().CommittedTxs(); n != 1 {
		t.Fatalf("the ledger committed %d transactions, want the one", n)
	}
}

// TestOrdererCloseReleasesParkedRequests: closing an orderer with submits
// parked on it returns long before their bound, answers or
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
			if res, err := callForResult(conn, wire.MsgSubmit, submitFrame(fmt.Sprintf("never-%d", i))); err == nil && res.Found {
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

// TestParkedRequestsOfDeadClientsAreReclaimed: a handler does not read its
// connection while parked on its submit, so it cannot see the client go; the
// bound is what frees it. 512 clients — the benchmark's pool — vanish
// mid-wait, and the handler count returns to zero.
func TestParkedRequestsOfDeadClientsAreReclaimed(t *testing.T) {
	ord := startLoneOrderer(t)
	const n = 512
	conns := make([]*transport.Conn, n)
	for i := range conns {
		conn, err := transport.Dial(ord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(wire.MsgSubmit, submitFrame(fmt.Sprintf("never-%d", i))); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	awaitParked(t, ord, n)
	if got := ordererHandlers(); got != n {
		t.Fatalf("%d handlers while %d submits are parked", got, n)
	}
	for _, conn := range conns {
		conn.Close()
	}
	for deadline := time.Now().Add(resultWaitBound + 5*time.Second); ordererHandlers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d handlers of dead clients still parked %v past the bound", ordererHandlers(), 5*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if left := parkedWaiters(ord); left != 0 {
		t.Fatalf("%d waiters still registered after the bound", left)
	}
}

// TestResolvedResultIsAnsweredWithoutParking: a bare result request for a
// transaction that has already resolved is answered at once.
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
	res, err := callForResult(conn, wire.MsgResultPoll, []byte("early"))
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

// countingRelay stands in the orderer's place and forwards every request to
// it, counting the frames clients send by type. cut, when non-nil, decides
// per frame (one call at a time) whether the relay drops the client's
// connection right after forwarding — the request reaches the orderer, the
// answer never comes back.
func countingRelay(t *testing.T, ord *Orderer, cut func(wire.MsgType) bool) (addr string, served func() map[wire.MsgType]int) {
	t.Helper()
	var mu sync.Mutex
	counts := map[wire.MsgType]int{}
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
			counts[typ]++
			cutNow := cut != nil && cut(typ)
			mu.Unlock()
			if cutNow {
				_ = up.Send(typ, payload)
				// Hold the cut until the orderer has accepted the request.
				for deadline := time.Now().Add(5 * time.Second); parkedWaiters(ord) == 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				return
			}
			typ, payload, err = up.Call(typ, payload)
			if err != nil || down.Send(typ, payload) != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	return relay.Addr(), func() map[wire.MsgType]int {
		mu.Lock()
		defer mu.Unlock()
		out := map[wire.MsgType]int{}
		for typ, n := range counts {
			out[typ] = n
		}
		return out
	}
}

// TestCommittedSubmitCostsTheOrdererOneRequest pins the message budget: a
// committed Client.Submit reaches the orderer as exactly one frame, the
// submit, which the result answers.
func TestCommittedSubmitCostsTheOrdererOneRequest(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2, func(c *OrdererConfig) {
		c.BlockTimeout = 50 * time.Millisecond
	})
	addr, served := countingRelay(t, ord, nil)
	client, err := DialClient("budget", []string{addr}, peerAddrs(peers), dialTimeout)
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
	if got := served(); len(got) != 1 || got[wire.MsgSubmit] != txs {
		t.Fatalf("%d committed submits cost the orderer %v, want %d %v and nothing else", txs, got, txs, wire.MsgSubmit)
	}
}

// TestCutConnectionResendGetsTheOriginalsVerdict: the client's connection
// is cut after the orderer accepted its submit and before the block seals.
// The client sends the same transaction again; the copy is dropped as a
// duplicate, and the answer is the original's sealed verdict — committed
// once on the ledger, the replay's AbortDuplicate never surfacing.
func TestCutConnectionResendGetsTheOriginalsVerdict(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 1, func(c *OrdererConfig) {
		c.BlockTimeout = 200 * time.Millisecond
	})
	first := true
	addr, served := countingRelay(t, ord, func(typ wire.MsgType) bool {
		cut := first && typ == wire.MsgSubmit
		first = false
		return cut
	})
	client, err := DialClient("cut", []string{addr}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Submit("kv", "put", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if got := served()[wire.MsgSubmit]; got != 2 {
		t.Fatalf("the client sent %d submits, want the original and one re-send", got)
	}
	code, block, ok := sealedVerdict(ord.Chain(), res.TxID)
	if !ok || res.Code != code || res.Block != block || code != protocol.Valid {
		t.Fatalf("got %v in block %d; ledger: held=%v %v in block %d, want Valid", res.Code, res.Block, ok, code, block)
	}
	awaitConvergence(t, ord, peerAddrs(peers))
	if n := ord.Chain().CommittedTxs(); n != 1 {
		t.Fatalf("the ledger committed %d transactions, want the one", n)
	}
}
