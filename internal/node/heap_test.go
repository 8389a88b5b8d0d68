package node

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestOrdererHeapHoldsAHotTail: the orderer's heap does not grow with the
// transactions it commits. Its Raft log and its chain keep a hot tail on the
// heap and the rest in their files, so once the state has stopped growing
// what a committed transaction still leaves behind is its entry in the dedup
// horizon and in the result store, both bounded. A library network writing
// 100 keys (so the peers in this process add nothing per transaction either)
// commits a warm-up past both hot tails, then as many transactions again
// twice over; between the two readings the process's live heap grows by at
// most 300 B per committed transaction. Keeping every entry and every
// block's transaction bytes on the heap costs about 1 KB.
func TestOrdererHeapHoldsAHotTail(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 12 000 transactions")
	}
	const workers, keys, warmup, measured, perTx = 32, 100, 4000, 8000, 300
	n := newTestNetwork(t, NetworkOptions{Peers: 2, BlockSize: 100, BlockTimeout: 20 * time.Millisecond})
	clients := make([]*Client, workers)
	for w := range clients {
		c, err := n.DialClient(fmt.Sprintf("heap%d", w))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients[w] = c
	}
	run := func(total int) {
		var wg sync.WaitGroup
		for w, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total/workers; i++ {
					res, err := c.Submit("kv", "put", fmt.Sprint("k", (w*total+i)%keys), "v")
					if err != nil || !res.Found || !res.Code.Committed() {
						t.Errorf("submit: %v (found %v, code %v)", err, res.Found, res.Code)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	reading := func() (heap, committed uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_, _, committed = n.OrdererChain().Status()
		return ms.HeapAlloc, committed
	}
	run(warmup)
	heap0, tx0 := reading()
	run(measured)
	heap1, tx1 := reading()
	growth := (float64(heap1) - float64(heap0)) / float64(tx1-tx0)
	t.Logf("live heap %.1f -> %.1f MiB over %d committed transactions: %.0f B each",
		float64(heap0)/(1<<20), float64(heap1)/(1<<20), tx1-tx0, growth)
	if growth > perTx {
		t.Fatalf("live heap grew %.0f B per committed transaction, want at most %d", growth, perTx)
	}
}
