package fabric_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestCrossPeerValidationAgreement hammers an MVCC system with a contended
// mixed workload and then asserts the property the old inline commit only
// assumed: every peer, validating independently as its blocks arrive,
// produced the sealed validation codes of every block (each peer's commit
// asserts them), the orderer's tip and tally, and an identical state
// fingerprint. (Before the pipeline split, cut() silently kept only the
// first peer's codes.)
func TestCrossPeerValidationAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemFabricPP, sched.SystemSharp} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, node.NetworkOptions{System: system, BlockSize: 8})
			client, err := n.NewClient("agree")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 12; i++ {
						switch i % 3 {
						case 0: // hot-key read-modify-write: MVCC/cycle aborts
							client.Submit("kv", "rmw", "hot", "1")
						case 1: // disjoint writes: always valid
							client.Submit("kv", "put", fmt.Sprintf("cold-%d-%d", w, i), "v")
						default: // warm keys shared by workers
							client.Submit("kv", "rmw", fmt.Sprintf("warm%d", i%4), "1")
						}
					}
				}(w)
			}
			wg.Wait()
			if !n.WaitIdle(10 * time.Second) {
				t.Fatal("network did not go idle")
			}
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}

			if n.OrdererChain().Len() == 0 {
				t.Fatal("no blocks committed")
			}
			assertPeersOnTheOrderersTip(t, n)
			refFP := n.Peer(0).State().StateFingerprint()
			for i := 1; i < 4; i++ {
				if got := n.Peer(i).State().StateFingerprint(); got != refFP {
					t.Fatalf("peer %d state fingerprint diverged", i)
				}
			}
			// The contended workload actually exercised the abort paths on an
			// MVCC system (otherwise the agreement above is vacuous).
			if system == sched.SystemFabric {
				aborts := 0
				n.OrdererChain().ForEach(func(b *ledger.Block) bool {
					for _, c := range b.Validation {
						if c != protocol.Valid {
							aborts++
						}
					}
					return true
				})
				if aborts == 0 {
					t.Error("no validation aborts under contention — workload not contended?")
				}
			}
		})
	}
}
