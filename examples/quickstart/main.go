// Quickstart: boot an in-process FabricSharp network, submit a few
// transactions through the full execute-order-validate pipeline, query the
// committed state, and show the abort taxonomy on a conflicting pair.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	fabricsharp "fabricsharp"
)

func main() {
	// A 4-peer network running the paper's scheduler: one orderer and four
	// peers in this process, talking over in-memory connections.
	net, err := fabricsharp.NewNetwork(fabricsharp.NetworkOptions{
		System:       fabricsharp.SystemSharp,
		BlockSize:    10,
		BlockTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	alice, err := net.NewClient("alice")
	if err != nil {
		log.Fatal(err)
	}

	// Execution: alice's proposal is simulated on an endorsing peer, which
	// records the read/write set and signs it. Ordering: the endorsed
	// transaction flows through consensus into the Sharp scheduler.
	// Validation: peers commit it without re-checking concurrency — the
	// ordering phase already guaranteed serializability.
	res, err := alice.Submit("kv", "put", "greeting", "hello, blockchain")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put committed in block %d (%s)\n", res.Block, res.Code)

	val, err := alice.Query("kv", "get", "greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query returned %q\n", val)

	// Increment a counter a few times — read-modify-writes serialize.
	for i := 0; i < 5; i++ {
		if _, err := alice.Submit("kv", "rmw", "visits", "1"); err != nil {
			log.Fatal(err)
		}
	}
	visits, _ := alice.Query("kv", "get", "visits")
	fmt.Printf("visits counter: %s\n", visits)

	fmt.Printf("chain height: %d blocks; peers agree: %v\n",
		net.Height(), string(net.Peer(0).State().StateFingerprint()) == string(net.Peer(1).State().StateFingerprint()))
}
