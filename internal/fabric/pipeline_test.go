package fabric

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestCrossPeerValidationAgreement hammers an MVCC system with a contended
// mixed workload and then asserts the property the old inline commit only
// assumed: every peer, validating independently on its own committer,
// produced identical per-block validation codes, identical chains, and an
// identical state fingerprint. (Before the pipeline split, cut() silently
// kept only the first peer's codes.)
func TestCrossPeerValidationAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemFabricPP, sched.SystemSharp} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{System: system, BlockSize: 8})
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

			ref := n.Peer(0)
			if ref.Chain().Len() == 0 {
				t.Fatal("no blocks committed")
			}
			refFP := ref.State().StateFingerprint()
			for i := 1; i < 4; i++ {
				p := n.Peer(i)
				if !bytes.Equal(p.Chain().TipHash(), ref.Chain().TipHash()) {
					t.Fatalf("peer %d chain tip diverged", i)
				}
				if got := p.State().StateFingerprint(); got != refFP {
					t.Fatalf("peer %d state fingerprint diverged", i)
				}
				// Block-by-block: validation codes must agree exactly.
				ref.Chain().ForEach(func(rb *ledger.Block) bool {
					pb, ok := p.Chain().Get(rb.Header.Number)
					if !ok {
						t.Fatalf("peer %d missing block %d", i, rb.Header.Number)
					}
					if len(pb.Validation) != len(rb.Validation) {
						t.Fatalf("peer %d block %d: %d codes vs %d", i, rb.Header.Number, len(pb.Validation), len(rb.Validation))
					}
					for j := range rb.Validation {
						if pb.Validation[j] != rb.Validation[j] {
							t.Fatalf("peer %d block %d tx %d: code %v vs lead %v",
								i, rb.Header.Number, j, pb.Validation[j], rb.Validation[j])
						}
					}
					return true
				})
			}
			// The contended workload actually exercised the abort paths on an
			// MVCC system (otherwise the agreement above is vacuous).
			if system == sched.SystemFabric {
				aborts := 0
				ref.Chain().ForEach(func(b *ledger.Block) bool {
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

// TestCommitPipelineStats checks the new instrumentation is actually wired:
// blocks flow through every committer, latency samples accumulate, and on
// an MVCC system the conflict partition reports its parallelism.
func TestCommitPipelineStats(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemFabric, BlockSize: 6})
	client, err := n.NewClient("stats")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if _, err := client.MustSubmit("kv", "put", fmt.Sprintf("s%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if !n.WaitIdle(5 * time.Second) {
		t.Fatal("not idle")
	}
	blocks := uint64(n.Peer(0).Chain().Len())
	for i := 0; i < 4; i++ {
		st := n.Peer(i).Committer().Stats()
		if st.BlocksCommitted.Value() != blocks {
			t.Errorf("peer %d: BlocksCommitted = %d want %d", i, st.BlocksCommitted.Value(), blocks)
		}
		if st.TxsValidated.Value() == 0 {
			t.Errorf("peer %d: no transactions validated", i)
		}
		if st.CommitLatencyNS.Count() != blocks {
			t.Errorf("peer %d: %d latency samples want %d", i, st.CommitLatencyNS.Count(), blocks)
		}
		// Disjoint-key puts: each block's transactions form independent
		// conflict groups, so parallelism was available and recorded.
		if st.ValidationGroups.Value() == 0 {
			t.Errorf("peer %d: no validation groups recorded on an MVCC system", i)
		}
		if st.QueueDepth.Value() != 0 {
			t.Errorf("peer %d: delivery queue not drained (%d)", i, st.QueueDepth.Value())
		}
	}
}
