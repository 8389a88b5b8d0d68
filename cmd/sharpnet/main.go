// Command sharpnet drives the EOV blockchain through subcommands:
//
//	sharpnet demo    — boot the in-process network (library mode) and run a
//	                   short contended counter workload against it: a
//	                   zero-setup way to watch the execute-order-validate
//	                   pipeline and the Sharp reordering at work.
//	sharpnet load    — act as a pure wire client against a process-per-node
//	                   cluster (cmd/fabricnode): an open-loop generator
//	                   (node.RunLoad) pacing submissions at -target-tps
//	                   regardless of completion latency. The run ends with
//	                   per-stage latency quantiles joined from every node's
//	                   trace ring, after asserting that every peer converged
//	                   to bit-identical chain tips and state fingerprints.
//	sharpnet trace   — drain the always-on stage-tracing rings of live
//	                   orderers and peers and print merged per-stage latency
//	                   quantiles (submit → order → seal → deliver → validate
//	                   → commit).
//	sharpnet status  — print one machine-readable line per cluster member
//	                   (role, name, term, leader, blocks, tip, committed).
//	sharpnet check   — poll until every live orderer and every peer agree on
//	                   a bit-identical chain tip and state fingerprint, then
//	                   assert the ledger's committed tally covers
//	                   -expect-committed.
//	sharpnet profile — fetch a runtime/pprof profile (cpu, heap, allocs,
//	                   goroutine) from one node over its wire port.
//
// Usage:
//
//	sharpnet demo [-system fabric#] [-clients 4] [-txs 200]
//	sharpnet load -orderer 127.0.0.1:7050 -peer-addrs 127.0.0.1:7051,127.0.0.1:7052 \
//	         -target-tps 500 -duration 10s [-workload msmallbank] [-accounts 100000]
//	sharpnet trace -orderer ... -peer-addrs ... [-tx <id>]
//	sharpnet check -orderer ... -peer-addrs ... -expect-committed 500
//	sharpnet profile -node 127.0.0.1:7050 -kind cpu -seconds 10 -o cpu.pb.gz
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "help", "-h", "-help", "--help":
			usage(os.Stdout)
			return
		}
	}
	if len(args) == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	var code int
	switch cmd {
	case "demo":
		code = cmdDemo(rest)
	case "load":
		code = cmdLoad(rest)
	case "trace":
		code = cmdTrace(rest)
	case "status":
		code = cmdStatus(rest)
	case "check":
		code = cmdCheck(rest)
	case "profile":
		code = cmdProfile(rest)
	default:
		fmt.Fprintf(os.Stderr, "sharpnet: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		code = 2
	}
	os.Exit(code)
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: sharpnet <command> [flags]

commands:
  demo    run the in-process network demo (no cluster needed)
  load    drive a fabricnode cluster open-loop at -target-tps and report
          per-stage latency from the merged trace rings
  trace   drain every node's stage-tracing ring and print merged per-stage
          latency quantiles, or with -tx the stages one transaction crossed
  status  print one line per reachable cluster member
  check   poll until the cluster agrees bit for bit, then assert the
          committed-transaction tally
  profile write one node's cpu, heap, allocs or goroutine profile to a
          file for go tool pprof

run 'sharpnet <command> -h' for that command's flags.
`)
}

func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
