package orderer_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/fabric"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// TestZeroPeerServiceSealsTheNetworkChain is the property a process-per-node
// orderer rests on: a Service with no peers, no waiters and no commit
// barrier, fed the same consensus stream as a library network, seals a
// chain byte-identical to that network's lead chain — verdicts and rescue
// digests included — and hands every block to its delivery.
func TestZeroPeerServiceSealsTheNetworkChain(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			opts := orderer.Options{System: system, Orderers: 1, BlockSize: 4, BlockTimeout: 30 * time.Millisecond, Rescue: true}
			stream := consensus.NewKafka()
			n, err := fabric.NewNetwork(fabric.Options{
				System: opts.System, Orderers: opts.Orderers, BlockSize: opts.BlockSize, BlockTimeout: opts.BlockTimeout,
				Rescue: opts.Rescue, Peers: 2, Ordering: stream,
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
			want := n.OrdererChain(0)
			if want.Len() < 4 {
				t.Fatalf("only %d blocks sealed", want.Len())
			}

			// The retained stream replays from offset zero into a second,
			// peerless consumer. Its cut timer never fires: every timed cut
			// is already a marker in the stream.
			opts.BlockTimeout = time.Hour
			msp, policy := identity.DevMSP("peer0", "peer1")
			var delivered []*ledger.Block
			svc, err := orderer.New(orderer.Config{
				Options:  opts,
				MSP:      msp,
				Policy:   policy,
				Registry: chaincode.NewRegistry(scenario.AllContracts()...),
				Ordering: stream,
				Deliveries: []transport.Delivery{transport.DeliveryFunc(func(b *ledger.Block) error {
					delivered = append(delivered, b)
					return nil
				})},
			})
			if err != nil {
				t.Fatal(err)
			}
			svc.Start()
			got := svc.Chain(0)
			for deadline := time.Now().Add(10 * time.Second); got.Len() < want.Len() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			svc.Close() // the lead goroutine has exited: delivered is safe to read
			if err := svc.Err(); err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() || len(delivered) != want.Len() {
				t.Fatalf("service sealed %d and delivered %d blocks, network sealed %d", got.Len(), len(delivered), want.Len())
			}
			for num := uint64(1); num <= uint64(want.Len()); num++ {
				wb, _ := want.Get(num)
				gb, _ := got.Get(num)
				if !bytes.Equal(wire.EncodeBlock(gb), wire.EncodeBlock(wb)) {
					t.Fatalf("block %d differs from the network's lead chain", num)
				}
				if !bytes.Equal(wire.EncodeBlock(delivered[num-1]), wire.EncodeBlock(wb)) {
					t.Fatalf("delivered block %d differs from the sealed one", num)
				}
			}
		})
	}
}
