package fabric

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestShadowVerdictsMatchPeerValidation runs a contended workload through
// every system and asserts the tentpole invariant end to end: the verdicts
// the orderer's shadow validator sealed into each block are byte-identical
// to the codes the peers derived during validation. (The committers also
// assert this per block at runtime — a divergence would surface through
// n.Err() — but this test checks the recorded chains directly, for all five
// systems.)
func TestShadowVerdictsMatchPeerValidation(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{System: system, BlockSize: 8})
			client, err := n.NewClient("shadow")
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
						case 0:
							client.Submit("kv", "rmw", "hot", "1")
						case 1:
							client.Submit("kv", "put", fmt.Sprintf("cold-%d-%d", w, i), "v")
						default:
							client.Submit("kv", "rmw", fmt.Sprintf("warm%d", i%4), "1")
						}
					}
				}(w)
			}
			wg.Wait()
			if !n.WaitIdle(10 * time.Second) {
				t.Fatalf("network did not go idle (err=%v)", n.Err())
			}
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}

			peer := n.Peer(0)
			if peer.Chain().Len() == 0 {
				t.Fatal("no blocks committed")
			}
			aborts := 0
			peer.Chain().ForEach(func(pb *ledger.Block) bool {
				ob, ok := n.OrdererChain(0).Get(pb.Header.Number)
				if !ok {
					t.Fatalf("orderer chain missing block %d", pb.Header.Number)
				}
				if len(ob.Validation) != len(pb.Validation) {
					t.Fatalf("block %d: orderer sealed %d verdicts, peer derived %d",
						pb.Header.Number, len(ob.Validation), len(pb.Validation))
				}
				for i := range pb.Validation {
					if ob.Validation[i] != pb.Validation[i] {
						t.Fatalf("block %d tx %d: orderer shadow verdict %v, peer verdict %v",
							pb.Header.Number, i, ob.Validation[i], pb.Validation[i])
					}
					if pb.Validation[i] != protocol.Valid {
						aborts++
					}
				}
				return true
			})
			// Systems that let conflicts reach the ledger (Fabric's FIFO,
			// Focc-l's reorder-only batches) must have actually exercised
			// the abort path, or the equality above says nothing. Fabric++
			// reorders/drops conflicts before sealing, so its blocks can
			// legitimately be clean.
			if (system == sched.SystemFabric || system == sched.SystemFoccL) && aborts == 0 {
				t.Error("no validation aborts under contention — workload not contended?")
			}
		})
	}
}

// TestFoccLLeadFollowerAgreement pins the agreement property this PR turned
// from best-effort into exact: Focc-l is the one scheduler whose block
// contents depend on commit feedback, so before feedback became a
// deterministic function of the stream, lead and follower orderers could
// seal different chains under contention. Now every replica derives
// identical verdicts at identical stream positions, and the chains —
// contents, hashes, and sealed verdicts — must match bit for bit.
func TestFoccLLeadFollowerAgreement(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemFoccL, Orderers: 3, BlockSize: 8})
	client, err := n.NewClient("bank")
	if err != nil {
		t.Fatal(err)
	}
	// A contended SmallBank stream: a small hot account pool hammered by
	// concurrent transfers, so doomed transactions (stale reads beyond
	// intra-batch repair) actually occur and the reordering reads feedback.
	for i := 0; i < 4; i++ {
		if _, err := client.MustSubmit("smallbank", "create_account", fmt.Sprintf("h%d", i), "100000", "100000"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				src := fmt.Sprintf("h%d", (w+i)%4)
				dst := fmt.Sprintf("h%d", (w+i+1)%4)
				client.Submit("smallbank", "send_payment", src, dst, "1")
			}
		}(w)
	}
	wg.Wait()
	if !n.WaitIdle(10 * time.Second) {
		t.Fatalf("network did not go idle (err=%v)", n.Err())
	}
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	// Followers consume the same stream asynchronously; give them a bounded
	// moment to reach the lead's tip before demanding exact agreement.
	awaitFollowers(n, 5*time.Second)
	lead := n.OrdererChain(0)

	if lead.Len() < 2 {
		t.Fatalf("only %d blocks sealed — stream not contended enough", lead.Len())
	}
	conflicts := 0
	lead.ForEach(func(lb *ledger.Block) bool {
		for _, c := range lb.Validation {
			if c == protocol.MVCCConflict {
				conflicts++
			}
		}
		return true
	})
	if conflicts == 0 {
		t.Error("no MVCC conflicts on the lead chain — Focc-l's doomed path not exercised")
	}

	assertOrderersAgree(t, n)
}

// awaitFollowers gives the follower orderers (which consume the same stream
// asynchronously) a bounded moment to reach the lead's tip.
func awaitFollowers(n *Network, timeout time.Duration) {
	lead := n.OrdererChain(0)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		caughtUp := true
		for i := 1; i < n.Orderers(); i++ {
			if !bytes.Equal(n.OrdererChain(i).TipHash(), lead.TipHash()) {
				caughtUp = false
			}
		}
		if caughtUp {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertOrderersAgree demands bit-identical chains — lengths, hashes, block
// contents, sealed verdicts — on every orderer replica.
func assertOrderersAgree(t *testing.T, n *Network) {
	t.Helper()
	lead := n.OrdererChain(0)
	for i := 1; i < n.Orderers(); i++ {
		follower := n.OrdererChain(i)
		if follower.Len() != lead.Len() {
			t.Fatalf("orderer %d sealed %d blocks, lead %d", i, follower.Len(), lead.Len())
		}
		if !bytes.Equal(follower.TipHash(), lead.TipHash()) {
			t.Fatalf("orderer %d tip diverged from lead", i)
		}
		lead.ForEach(func(lb *ledger.Block) bool {
			fb, ok := follower.Get(lb.Header.Number)
			if !ok {
				t.Fatalf("orderer %d missing block %d", i, lb.Header.Number)
			}
			if !bytes.Equal(fb.Hash(), lb.Hash()) {
				t.Fatalf("orderer %d block %d hash diverged", i, lb.Header.Number)
			}
			// The rescue digest is block metadata (outside the header hash),
			// so agreement on it must be asserted separately.
			if !bytes.Equal(fb.RescueDigest, lb.RescueDigest) {
				t.Fatalf("orderer %d block %d rescue digest diverged: %x vs lead %x",
					i, lb.Header.Number, fb.RescueDigest, lb.RescueDigest)
			}
			for j := range lb.Transactions {
				if fb.Transactions[j].ID != lb.Transactions[j].ID {
					t.Fatalf("orderer %d block %d position %d: tx %s vs lead %s",
						i, lb.Header.Number, j, fb.Transactions[j].ID, lb.Transactions[j].ID)
				}
				if fb.Validation[j] != lb.Validation[j] {
					t.Fatalf("orderer %d block %d tx %d: verdict %v vs lead %v",
						i, lb.Header.Number, j, fb.Validation[j], lb.Validation[j])
				}
			}
			return true
		})
	}
}

// TestRescueLeadFollowerAgreement pins the determinism of the post-order
// rescue phase: with Rescue enabled, every orderer replica re-executes the
// block's MVCC casualties against its own shadow state and must seal
// bit-identical verdicts AND bit-identical rescue write-set digests — the
// digest is a hash of the re-executed values themselves, so agreement means
// the speculative parallel executor converged to the same bytes on every
// replica. Peers re-derive the same digest during commit (a mismatch would
// surface through n.Err()), and their chains must carry the same Rescued
// verdicts the orderers sealed.
func TestRescueLeadFollowerAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemFoccL} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{System: system, Orderers: 3, BlockSize: 8, Rescue: true})
			client, err := n.NewClient("bank")
			if err != nil {
				t.Fatal(err)
			}
			const hot = 4
			const seedBal = 100000
			for i := 0; i < hot; i++ {
				if _, err := client.MustSubmit("smallbank", "create_account", fmt.Sprintf("h%d", i), fmt.Sprint(seedBal), fmt.Sprint(seedBal)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						src := fmt.Sprintf("h%d", (w+i)%hot)
						dst := fmt.Sprintf("h%d", (w+i+1)%hot)
						client.Submit("smallbank", "send_payment", src, dst, fmt.Sprint(1+i%7))
					}
				}(w)
			}
			wg.Wait()
			if !n.WaitIdle(10 * time.Second) {
				t.Fatalf("network did not go idle (err=%v)", n.Err())
			}
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}
			awaitFollowers(n, 5*time.Second)

			// The contended stream must actually have exercised the rescue
			// path, or the agreement below says nothing about it.
			rescued, digests := 0, 0
			lead := n.OrdererChain(0)
			lead.ForEach(func(lb *ledger.Block) bool {
				for _, c := range lb.Validation {
					if c == protocol.Rescued {
						rescued++
					}
				}
				if lb.RescueDigest != nil {
					digests++
				}
				return true
			})
			if rescued == 0 {
				t.Fatal("no Rescued verdicts sealed — workload not contended enough")
			}
			if digests == 0 {
				t.Fatal("Rescued verdicts present but no block carries a rescue digest")
			}

			assertOrderersAgree(t, n)

			// Peers derived the same verdicts (including Rescued) from the
			// sealed blocks.
			peer := n.Peer(0)
			peer.Chain().ForEach(func(pb *ledger.Block) bool {
				ob, ok := lead.Get(pb.Header.Number)
				if !ok {
					t.Fatalf("orderer chain missing block %d", pb.Header.Number)
				}
				for i := range pb.Validation {
					if ob.Validation[i] != pb.Validation[i] {
						t.Fatalf("block %d tx %d: orderer sealed %v, peer derived %v",
							pb.Header.Number, i, ob.Validation[i], pb.Validation[i])
					}
				}
				if !bytes.Equal(ob.RescueDigest, pb.RescueDigest) {
					t.Fatalf("block %d: peer rescue digest diverged from orderer", pb.Header.Number)
				}
				return true
			})

			// Money conservation: send_payment moves value between checking
			// accounts; rescued re-executions must preserve the invariant
			// exactly. Any double-applied or stale-value rescue breaks this.
			total := 0
			for i := 0; i < hot; i++ {
				for _, key := range []string{chaincode.CheckingKey(fmt.Sprintf("h%d", i)), chaincode.SavingsKey(fmt.Sprintf("h%d", i))} {
					vv, ok := peer.State().Get(key)
					if !ok {
						t.Fatalf("account key %s missing from peer state", key)
					}
					bal, err := strconv.Atoi(string(vv.Value))
					if err != nil {
						t.Fatalf("account key %s holds %q: %v", key, vv.Value, err)
					}
					total += bal
				}
			}
			if want := hot * 2 * seedBal; total != want {
				t.Fatalf("money not conserved across rescues: accounts sum to %d, want %d", total, want)
			}
		})
	}
}

// TestCompactionLeadFollowerAgreement is the hard invariant of PR 4's epoch
// compaction: lead and follower orderers compact their intern tables at cut
// time — remapping every KeyID — and must still seal bit-identical chains.
// The workload churns through a rotating key space (every round touches a
// fresh generation, retiring the previous one past the horizon) alongside a
// persistent hot set, across at least two compaction boundaries, for the
// schedulers whose committed-key state actually participates in decisions.
func TestCompactionLeadFollowerAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemSharp, sched.SystemFoccS} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{
				System:       system,
				Orderers:     3,
				BlockSize:    4,
				MaxSpan:      4,
				CompactEvery: 2,
			})
			client, err := n.NewClient("churn")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 12; i++ {
						gen := i / 3 // rotate the key space every few rounds
						switch i % 3 {
						case 0:
							client.Submit("kv", "rmw", "hot", "1")
						case 1:
							client.Submit("kv", "put", fmt.Sprintf("g%d:w%d:%d", gen, w, i), "v")
						default:
							client.Submit("kv", "rmw", fmt.Sprintf("g%d:warm%d", gen, i%2), "1")
						}
					}
				}(w)
			}
			wg.Wait()
			if !n.WaitIdle(10 * time.Second) {
				t.Fatalf("network did not go idle (err=%v)", n.Err())
			}
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}
			awaitFollowers(n, 5*time.Second)
			// ≥2 compaction boundaries: with CompactEvery=2 that means at
			// least 4 sealed blocks.
			if sealed := n.OrdererChain(0).Len(); sealed < 4 {
				t.Fatalf("only %d blocks sealed — fewer than two compaction epochs", sealed)
			}
			assertOrderersAgree(t, n)
		})
	}
}
