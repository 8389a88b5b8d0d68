package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/trace"
)

// traceFlags configures `sharpnet trace`: drain every listed node's
// stage-tracing ring and print the merged latency table and each orderer's
// per-block cut breakdown, or with -tx the stages one transaction crossed.
type traceFlags struct {
	Orderers    []string
	Peers       []string
	DialTimeout time.Duration
	Tx          string
}

func (f traceFlags) validate() error {
	if len(f.Orderers) == 0 && len(f.Peers) == 0 {
		return fmt.Errorf("trace needs -orderer and/or -peer-addrs to drain")
	}
	return nil
}

func cmdTrace(args []string) int {
	fs := flag.NewFlagSet("sharpnet trace", flag.ExitOnError)
	var f traceFlags
	var orderers, peers string
	fs.StringVar(&orderers, "orderer", "", "comma-separated orderer addresses")
	fs.StringVar(&peers, "peer-addrs", "", "comma-separated peer addresses")
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 30*time.Second, "per-node drain budget")
	fs.StringVar(&f.Tx, "tx", "", "print the stages this transaction crossed (defer(<code>) when the orderer deferred it) instead of the table")
	_ = fs.Parse(args)
	f.Orderers, f.Peers = splitAddrs(orderers), splitAddrs(peers)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet trace:", err)
		return 2
	}
	addrs := append(append([]string{}, f.Orderers...), f.Peers...)
	tls, dumps, err := node.FetchTimelines(addrs, f.DialTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet trace:", err)
		return 1
	}
	if f.Tx != "" {
		for i := range tls {
			if tls[i].TxID == f.Tx {
				fmt.Printf("%s: %s\n", f.Tx, tls[i].Path())
				return 0
			}
		}
		fmt.Fprintf(os.Stderr, "sharpnet trace: no node retains a stage of %s\n", f.Tx)
		return 1
	}
	for _, d := range dumps {
		fmt.Printf("node %-10s role %-8s recorded %8d  retained %8d\n",
			d.Node, d.Role, d.Recorded, len(d.Events))
	}
	fmt.Println()
	fmt.Print(trace.Summarize(tls).Format())
	fmt.Printf("TIMELINES %d\n", len(tls))
	for _, d := range dumps {
		if rows := trace.Cuts(d); len(rows) > 0 {
			fmt.Printf("\ncut breakdown, orderer %s\n%s", d.Node, trace.FormatCuts(rows, 10))
		}
	}
	return 0
}
