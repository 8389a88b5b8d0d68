package orderer_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/node"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

// contendedNetwork runs a hot-key workload through a library network and
// returns it, with the committed log of its solo orderer's Raft group, once
// it has gone idle: the log is the recording the tests below replay.
func contendedNetwork(t *testing.T, opts orderer.Options) (*node.Network, []consensus.Envelope) {
	t.Helper()
	n, err := node.NewNetwork(node.NetworkOptions{
		System: opts.System, BlockSize: opts.BlockSize, BlockTimeout: opts.BlockTimeout,
		Rescue: opts.Rescue, Peers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		client, err := n.NewClient(fmt.Sprintf("c%d", w))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// A hot key for conflicts (aborts, rescues) plus private
				// keys so every block also carries clean commits.
				client.Submit("kv", "rmw", "hot", "1")
				client.Submit("kv", "put", fmt.Sprintf("w%d:%d", w, i), "v")
			}
		}(w)
	}
	wg.Wait()
	if !n.WaitIdle(10 * time.Second) {
		t.Fatalf("network did not go idle (err=%v)", n.Err())
	}
	if sealed := n.OrdererChain().Len(); sealed < 4 {
		t.Fatalf("only %d blocks sealed", sealed)
	}
	stream := n.Orderer().Raft()
	replay, cancel := stream.Subscribe()
	defer cancel()
	envs := make([]consensus.Envelope, stream.CommitIndex())
	for i := range envs {
		envs[i] = (<-replay).Env
	}
	return n, envs
}

// coreConfig is the configuration a peerless consumer of contendedNetwork's
// stream needs to reproduce that network's chain.
func coreConfig(opts orderer.Options) orderer.CoreConfig {
	msp, policy := identity.DevMSP("peer0", "peer1")
	return orderer.CoreConfig{
		Options:  opts,
		MSP:      msp,
		Policy:   policy,
		Registry: chaincode.NewRegistry(scenario.AllContracts()...),
	}
}

func assertSameChain(t *testing.T, who string, got, want *ledger.Chain) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s sealed %d blocks, network sealed %d", who, got.Len(), want.Len())
	}
	for num := uint64(1); num <= uint64(want.Len()); num++ {
		wb, _ := want.Get(num)
		gb, _ := got.Get(num)
		if !bytes.Equal(wire.EncodeBlock(gb), wire.EncodeBlock(wb)) {
			t.Fatalf("%s block %d differs from the network's chain", who, num)
		}
	}
}

// TestServiceRetainsNoGenesis pins that a built Service keeps no reference
// to Options.Genesis: the function is called once, to seed the Core's shadow
// with the base it returns, and a process that keeps its Service keeps
// neither it nor what it captured. Here it captures a write set whose
// backing array carries a finalizer; it must run while the Service is still
// live.
func TestServiceRetainsNoGenesis(t *testing.T) {
	collected := make(chan struct{})
	svc := func() *orderer.Service {
		genesis := &[1000]protocol.WriteItem{}
		for i := range genesis {
			genesis[i] = protocol.WriteItem{Key: fmt.Sprintf("acct%d", i), Value: []byte("100")}
		}
		runtime.SetFinalizer(genesis, func(*[1000]protocol.WriteItem) { close(collected) })
		svc, err := orderer.New(orderer.Config{
			CoreConfig: coreConfig(orderer.Options{System: sched.SystemSharp, Genesis: func() (*statedb.Base, error) {
				return statedb.NewBase(genesis[:], workload.GenesisVersion())
			}}),
			Ordering: orderer.SoloStream(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}()
	defer svc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the genesis write set is still reachable from the built Service")
			}
		}
	}
	runtime.KeepAlive(svc)
}

// TestZeroPeerServiceSealsTheNetworkChain is the property a process-per-node
// orderer rests on: a Service with no peers, no waiters and no commit
// barrier, fed the same consensus stream as a library network, seals a
// chain byte-identical to that network's chain — verdicts and rescue
// digests included — and hands every block to its delivery.
func TestZeroPeerServiceSealsTheNetworkChain(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			opts := orderer.Options{System: system, BlockSize: 4, BlockTimeout: 30 * time.Millisecond, Rescue: true}
			n, _ := contendedNetwork(t, opts)
			want := n.OrdererChain()

			// The network's Raft group replays its stream from offset zero
			// into a second, peerless consumer, which closes it when done.
			// Its cut timer never fires: every timed cut is already a marker
			// in the stream.
			opts.BlockTimeout = time.Hour
			var delivered []*ledger.Block
			svc, err := orderer.New(orderer.Config{
				CoreConfig: coreConfig(opts),
				Ordering:   n.Orderer().Raft(),
				Deliver: func(b *ledger.Block) error {
					delivered = append(delivered, b)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			svc.Start()
			got := svc.Chain()
			for deadline := time.Now().Add(10 * time.Second); got.Len() < want.Len() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			svc.Close() // the run loop has exited: delivered is safe to read
			if err := svc.Err(); err != nil {
				t.Fatal(err)
			}
			assertSameChain(t, "service", got, want)
			if len(delivered) != want.Len() {
				t.Fatalf("service delivered %d blocks, network sealed %d", len(delivered), want.Len())
			}
			for i, b := range delivered {
				wb, _ := want.Get(uint64(i + 1))
				if !bytes.Equal(wire.EncodeBlock(b), wire.EncodeBlock(wb)) {
					t.Fatalf("delivered block %d differs from the sealed one", i+1)
				}
			}
		})
	}
}

// tally is the Events of a replayed Core: what it resolved, for comparison
// across Cores.
type tally struct {
	admitted []orderedAbort // code Valid, or the arrival code of a deferral
	aborted  []orderedAbort
	sealed   int
}

type orderedAbort struct {
	id   protocol.TxID
	code protocol.ValidationCode
}

func (e *tally) Admitted(id protocol.TxID, code protocol.ValidationCode) {
	e.admitted = append(e.admitted, orderedAbort{id, code})
}
func (e *tally) Aborted(id protocol.TxID, code protocol.ValidationCode) {
	e.aborted = append(e.aborted, orderedAbort{id, code})
}
func (e *tally) Sealed(*ledger.Block)         { e.sealed++ }
func (e *tally) CutStage(uint64, trace.Stage) {}

// TestCoresSealTheNetworkChain is the agreement property of Section 3.5 as a
// table: for every system, with rescue on and off, three fresh Cores folded
// over the recorded stream of a live contended network — transactions and
// time-to-cut markers alike — seal that network's chain byte for byte
// (hashes, contents, sealed verdicts, rescue digests) and resolve the same
// transactions the same way. No goroutine, no clock: a Core is a function of
// its stream.
func TestCoresSealTheNetworkChain(t *testing.T) {
	for _, system := range sched.Systems() {
		for _, rescue := range []bool{false, true} {
			system, rescue := system, rescue
			t.Run(fmt.Sprintf("%s/rescue=%v", system, rescue), func(t *testing.T) {
				opts := orderer.Options{System: system, BlockSize: 4, BlockTimeout: 30 * time.Millisecond, Rescue: rescue}
				n, envs := contendedNetwork(t, opts)

				var first *tally
				for i := 0; i < 3; i++ {
					c, err := orderer.NewCore(coreConfig(opts))
					if err != nil {
						t.Fatal(err)
					}
					got := &tally{}
					for _, env := range envs {
						if err := c.Step(env, got); err != nil {
							t.Fatal(err)
						}
					}
					if c.Pending() != 0 {
						t.Fatalf("core %d left %d transactions pending at the end of an idle network's stream", i, c.Pending())
					}
					assertSameChain(t, fmt.Sprintf("core %d", i), c.Chain(), n.OrdererChain())
					if got.sealed != c.Chain().Len() {
						t.Fatalf("core %d reported %d sealed blocks, chain holds %d", i, got.sealed, c.Chain().Len())
					}
					if first == nil {
						first = got
						continue
					}
					if fmt.Sprint(got.admitted) != fmt.Sprint(first.admitted) || fmt.Sprint(got.aborted) != fmt.Sprint(first.aborted) {
						t.Fatalf("core %d resolved transactions differently from core 0", i)
					}
				}
			})
		}
	}
}
