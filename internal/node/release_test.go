package node

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/wire"
)

// TestPeerReleasesItsBlocks delivers 64 blocks to an in-memory and to a
// durable peer, each block decoded from its wire form as a wire peer's
// subscription decodes it, with a finalizer on every block and every
// transaction. Once the committer is idle and the collector has run, every
// one of them must be finalized: a peer keeps its ledger's tip, not the
// blocks it committed, so its memory does not grow with the chain.
func TestPeerReleasesItsBlocks(t *testing.T) {
	sealed := sealContended(t, sched.SystemFabric, 72)
	if len(sealed) < 64 {
		t.Fatalf("the fixture sealed %d blocks, want 64", len(sealed))
	}
	sealed = sealed[:64]
	for _, peer := range []struct{ what, dir string }{{"in-memory peer", ""}, {"durable peer", t.TempDir()}} {
		what := peer.what
		p, err := newBarePeer(t, sched.SystemFabric, peer.dir)
		if err != nil {
			t.Fatal(err)
		}
		var live, finalized atomic.Int64
		for _, blk := range sealed {
			delivered, err := wire.DecodeBlock(wire.EncodeBlock(blk))
			if err != nil {
				t.Fatal(err)
			}
			live.Add(int64(1 + len(delivered.Transactions)))
			runtime.SetFinalizer(delivered, func(*ledger.Block) { finalized.Add(1) })
			for _, tx := range delivered.Transactions {
				runtime.SetFinalizer(tx, func(any) { finalized.Add(1) })
			}
			commitAll(t, p, []*ledger.Block{delivered})
		}
		if n, _ := p.Tip().Height(); n != 64 {
			t.Fatalf("%s: committed to block %d of 64", what, n)
		}
		for deadline := time.Now().Add(5 * time.Second); finalized.Load() < live.Load(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d delivered blocks and transactions still reachable after the committer went idle",
					what, live.Load()-finalized.Load(), live.Load())
			}
			runtime.GC()
		}
		p.Close()
	}
}
