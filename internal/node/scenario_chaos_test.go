package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/workload"
)

// chaosDial returns a dial function whose connections inject Send-side
// faults with the given probabilities (plus up to 1ms of delay, which
// reorders frames across connections). Each connection draws its fault
// sequence from its own rng, seeded from base and a per-connection counter.
// dropProb must stay 0 on subscriber dials: the one Subscribe frame is never
// retransmitted (see transport.Subscriber.Dial).
func chaosDial(base int64, dropProb, dupProb float64) func(string) (transport.FrameConn, error) {
	var n atomic.Int64
	return func(addr string) (transport.FrameConn, error) {
		conn, err := transport.Dial(addr)
		if err != nil {
			return nil, err
		}
		fc := transport.NewFaultConn(conn, base+n.Add(1))
		fc.DropProb = dropProb
		fc.DupProb = dupProb
		fc.MaxDelay = time.Millisecond
		return fc, nil
	}
}

// driveScenario pushes n generator operations through the cluster, two at a
// time: both are endorsed before either is submitted, so the second of a pair
// that touches what the first wrote carries a stale snapshot — a conflict the
// system under test has to abort, rescue or (fabric#, focc-s) defer, whatever
// the faults do to timing. A refused endorsement is the contract rejecting
// the proposal (e.g. a bid below the standing high) — an abort by design, not
// a cluster failure — so it counts toward aborted; any other error fails the
// test.
func driveScenario(t *testing.T, client *Client, gen workload.Generator, n int) (committed, aborted int) {
	t.Helper()
	for i := 0; i < n; i += 2 {
		var pair []*protocol.Transaction
		for j := i; j < min(i+2, n); j++ {
			op := gen.Next()
			tx, err := client.Endorse(op.Contract, op.Function, op.Args...)
			if err != nil {
				if strings.Contains(err.Error(), "endorsement refused") {
					aborted++
					continue
				}
				t.Fatalf("endorse %d (%s.%s): %v", j, op.Contract, op.Function, err)
			}
			pair = append(pair, tx)
		}
		for _, tx := range pair {
			res, err := client.SubmitTx(tx)
			if err != nil {
				t.Fatalf("submit %s (%s.%s): %v", tx.ID, tx.Contract, tx.Function, err)
			}
			if res.Code.Committed() {
				committed++
			} else {
				aborted++
			}
		}
	}
	return committed, aborted
}

// TestScenarioChaosMatrix is the registry's end-to-end contract: every
// registered scenario runs against a 3-orderer Raft / 2-peer wire cluster
// whose links drop, duplicate, and delay frames, loses a follower orderer
// and a peer mid-run, crosses several intern-table compaction epochs while
// they are down, and resurrects both. Afterwards every replica — surviving
// orderers, the restarted orderer, the surviving peer, and the reborn peer —
// must hold the bit-identical chain, the peers identical state fingerprints,
// and the final state must satisfy the scenario's own invariant.
func TestScenarioChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the scenario chaos matrix is not a -short test")
	}
	// Two scenarios run under plain Fabric so the matrix exercises both MVCC
	// pipelines and one under focc-s; the rest take fabric#. Every node runs
	// with rescue, so the last two defer what they would abort and re-execute
	// it in the block's tail — through the crashes and compaction epochs.
	systems := map[string]sched.System{"token": sched.SystemFabric, "auction": sched.SystemFabric, "msmallbank": sched.SystemFoccS}
	for si, name := range scenario.Names() {
		si, name := si, name
		t.Run(name, func(t *testing.T) {
			sc, ok := scenario.Get(name)
			if !ok {
				t.Fatalf("scenario %q vanished from the registry", name)
			}
			system, ok := systems[name]
			if !ok {
				system = sched.SystemSharp
			}
			// A small pool keeps every scenario contended; 8 satisfies the
			// strictest constructor floor (msmallbank needs >= 4 accounts).
			params := scenario.Params{Accounts: 8, Theta: 0.5, ReadHot: 0.3, WriteHot: 0.3}
			genesis := sc.GenesisWrites(params)
			peerNames := []string{"peer0", "peer1"}

			cfgs, ords, ordererAddrs := startRaftOrderers(t, system, 3, peerNames, func(i int, cfg *OrdererConfig) {
				cfg.BlockSize = 4
				cfg.MaxSpan = 8
				cfg.CompactEvery = 2
				cfg.RaftDir = t.TempDir()
				cfg.Genesis = genesis
				// Raft absorbs dropped frames through retransmission, so the
				// inter-orderer links take the full fault menu.
				cfg.RaftDial = chaosDial(int64(1+1000*si+i), 0.2, 0.15)
			})
			peerCfg := func(pn string) PeerConfig {
				return PeerConfig{
					Name:         pn,
					Listen:       "127.0.0.1:0",
					OrdererAddrs: ordererAddrs,
					System:       system,
					PeerNames:    peerNames,
					Genesis:      genesis,
					Rescue:       true,
					// Delivery links duplicate and delay but never drop.
					DialOrderer: chaosDial(int64(5001+1000*si), 0, 0.15),
				}
			}
			peers := make([]*Peer, len(peerNames))
			for i, pn := range peerNames {
				p, err := StartPeer(peerCfg(pn))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				peers[i] = p
			}
			// Drive through peer0 only: endorsement has no failover, and
			// peer1 dies mid-run.
			client, err := DialClient("chaos-"+name, ordererAddrs, []string{peers[0].Addr()}, dialTimeout)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			gen, err := sc.Generator(rand.New(rand.NewSource(int64(9000+si))), params)
			if err != nil {
				t.Fatal(err)
			}

			committed, aborted := driveScenario(t, client, gen, 24)

			// Crash a follower orderer (the surviving quorum keeps sealing).
			lead := waitRaftLeader(t, ords, 15*time.Second)
			down := (lead + 1) % len(ords)
			ords[down].Close()
			ords[down] = nil

			// Cross several compaction epochs (BlockSize=4, CompactEvery=2)
			// while it is gone, losing peer1 partway through.
			c, a := driveScenario(t, client, gen, 12)
			committed, aborted = committed+c, aborted+a
			if err := peers[1].Close(); err != nil {
				t.Fatal(err)
			}
			c, a = driveScenario(t, client, gen, 12)
			committed, aborted = committed+c, aborted+a

			// Resurrect both: a replacement peer1 (fresh state, same genesis,
			// catches up from block 1) and the downed orderer (persisted
			// term, empty log, catches up from the leader and re-derives
			// every block through the same compaction schedule).
			reborn, err := StartPeer(peerCfg("peer1"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reborn.Close() })
			rebornOrd, err := StartOrderer(cfgs[down])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rebornOrd.Close() })
			ords[down] = rebornOrd

			c, a = driveScenario(t, client, gen, 8)
			committed, aborted = committed+c, aborted+a
			if committed == 0 {
				t.Fatalf("nothing committed (%d aborted)", aborted)
			}
			t.Logf("%s on %s: %d committed, %d aborted", name, system, committed, aborted)

			// With every result resolved no new blocks can seal, so all
			// replicas converge to one final chain. The reference is the
			// orderer that led through the outage.
			ref := ords[lead].Chain()
			deadline := time.Now().Add(60 * time.Second)
			waitTip := func(what string, tip func() (int, []byte)) {
				t.Helper()
				for {
					l, h := tip()
					if l == ref.Len() && bytes.Equal(h, ref.TipHash()) {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s stuck at %d/%d blocks (tip %x, want %x)",
							what, l, ref.Len(), h, ref.TipHash())
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			for i, o := range ords {
				if o == nil || i == lead {
					continue
				}
				o := o
				waitTip(fmt.Sprintf("orderer %d", i), func() (int, []byte) {
					ch := o.Chain()
					return ch.Len(), ch.TipHash()
				})
			}
			waitTip("peer0", func() (int, []byte) {
				return peers[0].Chain().Len(), peers[0].Chain().TipHash()
			})
			waitTip("reborn peer1", func() (int, []byte) {
				return reborn.Chain().Len(), reborn.Chain().TipHash()
			})
			if ref.Len() < 6 {
				t.Fatalf("sealed only %d blocks; the outage must span compaction epochs", ref.Len())
			}
			rescued := 0
			ref.ForEach(func(b *ledger.Block) bool {
				for _, code := range b.Validation {
					if code == protocol.Rescued {
						rescued++
					}
				}
				return true
			})
			t.Logf("%s on %s: %d blocks, %d rescued", name, system, ref.Len(), rescued)
			if (name == "singlemod" || name == "msmallbank") && rescued == 0 {
				t.Errorf("pairs on %s's hot records never conflicted: the %s row deferred and rescued nothing", name, system)
			}

			// Identical chains must yield identical states, genesis included.
			if got, want := reborn.State().StateFingerprint(), peers[0].State().StateFingerprint(); got != want {
				t.Fatalf("reborn peer state fingerprint %s diverges from survivor %s", got, want)
			}
			// And that state must satisfy the scenario's own invariant.
			if err := sc.CheckInvariant(peers[0].State(), params); err != nil {
				t.Fatalf("invariant after chaos: %v", err)
			}
			if err := peers[0].Err(); err != nil {
				t.Fatalf("surviving peer failed: %v", err)
			}
			if err := reborn.Err(); err != nil {
				t.Fatalf("reborn peer failed: %v", err)
			}
		})
	}
}
