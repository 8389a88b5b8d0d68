package fabric

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/wire"
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
				ob, ok := n.OrdererChain().Get(pb.Header.Number)
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

// TestFoccLLeadFollowerAgreement pins the agreement property for the one
// scheduler whose block contents depend on commit feedback: Focc-l. Feedback
// is a deterministic function of the stream — every replica derives
// identical verdicts at identical stream positions — so follower Cores fed
// the lead's stream must match its chain bit for bit: contents, hashes and
// sealed verdicts.
func TestFoccLLeadFollowerAgreement(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemFoccL, BlockSize: 8})
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

	lead := n.OrdererChain()

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

// discardEvents is the orderer.Events of a replay that only compares chains.
type discardEvents struct{}

func (discardEvents) Admitted(protocol.TxID, protocol.ValidationCode) {}
func (discardEvents) Aborted(protocol.TxID, protocol.ValidationCode)  {}
func (discardEvents) Sealed(*ledger.Block)                            {}
func (discardEvents) CutStage(uint64, trace.Stage)                    {}

// assertOrderersAgree demands that follower orderers agree with n's: two
// fresh orderer.Cores are folded over the consensus stream n retained —
// transactions and time-to-cut markers alike — and each must seal n's chain
// bit for bit.
// wire.EncodeBlock covers hashes, contents, sealed verdicts and the rescue
// digest. n must be idle and built by newNet (which injects the retained
// stream).
func assertOrderersAgree(t *testing.T, n *Network) {
	t.Helper()
	stream := n.opts.Ordering.(*consensus.Kafka)
	replay, cancel := stream.Subscribe()
	defer cancel()
	envs := make([]consensus.Envelope, stream.Len())
	for i := range envs {
		envs[i] = (<-replay).Env
	}
	names := make([]string, len(n.peers))
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i)
	}
	msp, policy := identity.DevMSP(names...)
	lead := n.OrdererChain()
	for i := 1; i <= 2; i++ {
		follower, err := orderer.NewCore(orderer.CoreConfig{
			Options:  n.opts.ordering(),
			MSP:      msp,
			Policy:   policy,
			Registry: n.registry,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			if err := follower.Step(env, discardEvents{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := follower.Chain().Len(); got != lead.Len() {
			t.Fatalf("orderer %d sealed %d blocks, lead %d", i, got, lead.Len())
		}
		lead.ForEach(func(lb *ledger.Block) bool {
			fb, _ := follower.Chain().Get(lb.Header.Number)
			if !bytes.Equal(wire.EncodeBlock(fb), wire.EncodeBlock(lb)) {
				t.Fatalf("orderer %d block %d diverged from lead", i, lb.Header.Number)
			}
			return true
		})
	}
}

// TestRescueLeadFollowerAgreement pins the determinism of the post-order
// rescue phase: with Rescue enabled, every orderer re-executes the
// block's MVCC casualties — under fabric# and focc-s the tail it deferred
// at arrival — against its own shadow state and must seal
// bit-identical verdicts AND bit-identical rescue write-set digests — the
// digest is a hash of the re-executed values themselves, so agreement means
// the speculative parallel executor converged to the same bytes on every
// replica. Peers re-derive the same digest during commit (a mismatch would
// surface through n.Err()), and their chains must carry the same Rescued
// verdicts the orderers sealed.
func TestRescueLeadFollowerAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemFoccL, sched.SystemSharp, sched.SystemFoccS} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{System: system, BlockSize: 8, Rescue: true})
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

			// The contended stream must actually have exercised the rescue
			// path, or the agreement below says nothing about it.
			rescued, digests := 0, 0
			lead := n.OrdererChain()
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

// TestChurnAcrossHorizonLeadFollowerAgreement churns lead and follower
// orderers through a rotating key space (every round touches a fresh
// generation, retiring the previous one past the max-span horizon, which
// deletes its keys from the schedulers' indices) alongside a persistent hot
// set: they must still seal bit-identical chains. It runs the schedulers
// whose per-key state participates in decisions.
func TestChurnAcrossHorizonLeadFollowerAgreement(t *testing.T) {
	for _, system := range []sched.System{sched.SystemSharp, sched.SystemFoccS} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			n := newNet(t, Options{
				System:    system,
				BlockSize: 4,
				MaxSpan:   4,
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
			// With MaxSpan=4 the sixth sealed block prunes the first.
			if sealed := n.OrdererChain().Len(); sealed < 6 {
				t.Fatalf("only %d blocks sealed — the horizon never pruned", sealed)
			}
			assertOrderersAgree(t, n)
		})
	}
}
