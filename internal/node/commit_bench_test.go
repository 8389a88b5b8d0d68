package node

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// BenchmarkPeerDurableCommit prices landing a 100-transaction block on a
// -data-dir peer, as its subscription does. Endorsement checks and MVCC are
// off, so a block costs the linkage check, the verdict pass and the commit
// point itself — one kvstore batch (block record, 100 state writes, height),
// then publish. B/block is what the peer's directory holds per block
// afterwards.
func BenchmarkPeerDurableCommit(b *testing.B) {
	const blockTxs = 100
	dir := b.TempDir()
	peer, err := openPeer(PeerConfig{Name: "peer0", PeerNames: []string{"peer0", "peer1"}, System: sched.SystemSharp, DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	peer.validation.MSP = nil // price the commit point, not ed25519
	sealer, err := ledger.NewChain(nil)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*ledger.Block, b.N)
	for n := range blocks {
		txs := make([]*protocol.Transaction, blockTxs)
		for i := range txs {
			k := n*blockTxs + i
			txs[i] = &protocol.Transaction{
				ID: protocol.TxID(fmt.Sprintf("b%d-t%d", n, i)),
				RWSet: protocol.RWSet{
					Reads:  []protocol.ReadItem{{Key: fmt.Sprintf("k%d", (k*7)%40)}},
					Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", (k*3)%40), Value: []byte("v")}},
				},
				Endorsements: []protocol.Endorsement{{EndorserID: "peer1", Signature: make([]byte, 64)}},
			}
		}
		if blocks[n], err = sealer.Seal(txs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for _, blk := range blocks {
		if err := peer.deliver(blk, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	peer.Close()
	if got := peer.State().Height(); got != uint64(b.N) {
		b.Fatalf("committed %d of %d blocks", got, b.N)
	}
	var size int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if info, ierr := d.Info(); err == nil && ierr == nil && !d.IsDir() {
			size += info.Size()
		}
		return nil
	})
	b.ReportMetric(float64(size)/float64(b.N), "B/block")
}
