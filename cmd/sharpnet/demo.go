package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/sched"
)

// demoFlags configures `sharpnet demo`: the in-process network session.
type demoFlags struct {
	System  string
	Clients int
	Txs     int
	Hot     int
}

func (f demoFlags) validate() error {
	if f.Clients <= 0 {
		return fmt.Errorf("-clients must be positive, got %d", f.Clients)
	}
	if f.Txs <= 0 {
		return fmt.Errorf("-txs must be positive, got %d", f.Txs)
	}
	if f.Hot <= 0 {
		return fmt.Errorf("-hot must be positive, got %d", f.Hot)
	}
	return nil
}

func cmdDemo(args []string) int {
	fs := flag.NewFlagSet("sharpnet demo", flag.ExitOnError)
	var f demoFlags
	fs.StringVar(&f.System, "system", "fabric#", "fabric | fabric++ | fabric# | focc-s | focc-l")
	fs.IntVar(&f.Clients, "clients", 4, "concurrent clients")
	fs.IntVar(&f.Txs, "txs", 200, "transactions per client")
	fs.IntVar(&f.Hot, "hot", 8, "number of contended counters")
	_ = fs.Parse(args)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet demo:", err)
		return 2
	}
	return demo(f)
}

func demo(f demoFlags) int {
	net, err := node.NewNetwork(node.NetworkOptions{
		System:       sched.System(f.System),
		BlockSize:    50,
		BlockTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer net.Close()

	var committed, aborted int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < f.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := net.NewClient(fmt.Sprintf("client%d", c))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			for i := 0; i < f.Txs; i++ {
				key := fmt.Sprintf("counter%d", (c+i)%f.Hot)
				res, err := client.Submit("kv", "rmw", key, "1")
				switch {
				case err != nil:
					fmt.Fprintf(os.Stderr, "submit error: %v\n", err)
				case res.Committed():
					atomic.AddInt64(&committed, 1)
				default:
					atomic.AddInt64(&aborted, 1)
					if aborted <= 5 {
						fmt.Printf("  aborted %s: %s\n", res.TxID, res.Code)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	net.WaitIdle(5 * time.Second)
	elapsed := time.Since(start)

	fmt.Printf("\nsystem     %s\n", f.System)
	fmt.Printf("committed  %d\n", committed)
	fmt.Printf("aborted    %d (%.1f%%)\n", aborted,
		100*float64(aborted)/float64(committed+aborted))
	fmt.Printf("throughput %.0f tx/s (wall clock)\n", float64(committed)/elapsed.Seconds())
	fmt.Printf("height     %d blocks\n", net.Height())

	// Serializability, observably: the counters must sum to the committed
	// increments.
	client, _ := net.NewClient("auditor")
	total := int64(0)
	for k := 0; k < f.Hot; k++ {
		raw, err := client.Query("kv", "get", fmt.Sprintf("counter%d", k))
		if err == nil && raw != nil {
			var v int64
			fmt.Sscan(string(raw), &v)
			total += v
		}
	}
	fmt.Printf("audit      counters sum to %d (committed increments: %d)\n", total, committed)
	if total != committed {
		fmt.Fprintln(os.Stderr, "AUDIT FAILED: state does not match committed transactions")
		return 1
	}
	return 0
}
