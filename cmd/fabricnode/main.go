// Command fabricnode runs one node of a process-per-node EOV cluster: the
// ordering service (-role orderer) or a validating peer (-role peer),
// speaking the versioned wire protocol over TCP.
//
// A minimal 3-process cluster (see docs/transport.md and README):
//
//	fabricnode -role orderer -listen 127.0.0.1:7050 -peers peer0,peer1 -system fabric# -workload msmallbank
//	fabricnode -role peer -name peer0 -listen 127.0.0.1:7051 -orderer 127.0.0.1:7050 -peers peer0,peer1 -system fabric# -workload msmallbank
//	fabricnode -role peer -name peer1 -listen 127.0.0.1:7052 -orderer 127.0.0.1:7050 -peers peer0,peer1 -system fabric# -workload msmallbank
//
// then drive it with `sharpnet load -orderer 127.0.0.1:7050 -peer-addrs
// 127.0.0.1:7051,127.0.0.1:7052 -target-tps 500` (open-loop pacing over the
// genesis-seeded msmallbank pool; `sharpnet trace` drains the stage-tracing
// rings — docs/observability.md).
// Nodes shut down gracefully on SIGINT or SIGTERM (peers finish committing
// every delivered block first).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only under -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
)

func main() {
	role := flag.String("role", "", "orderer | peer")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	name := flag.String("name", "", "peer identity (role peer; must appear in -peers)")
	ordererAddr := flag.String("orderer", "", "comma-separated orderer addresses (role peer; the subscription fails over across them)")
	peerNames := flag.String("peers", "peer0,peer1", "comma-separated validating peer names (cluster-wide, identical on every node)")
	system := flag.String("system", "fabric#", "fabric | fabric++ | fabric# | focc-s | focc-l")
	blockSize := flag.Int("block-size", 100, "transactions per block (orderer)")
	blockTimeout := flag.Duration("block-timeout", 100*time.Millisecond, "partial-block cut timeout (orderer)")
	orderers := flag.Int("orderers", 1, "accepted for the benchmark harness only: must be 1 (replicate ordering with -raft-cluster)")
	maxSpan := flag.Uint64("max-span", 0, "Sharp pruning horizon (0 = default)")
	compactEvery := flag.Uint64("compact-every", 0, "intern-table compaction epoch in blocks (0 = off)")
	dedupHorizon := flag.Uint64("dedup-horizon", 0, "duplicate-suppression horizon in blocks (0 = default)")
	dataDir := flag.String("data-dir", "", "persist ledger+state in one kvstore under this directory: b/ block records, s/ state, meta/height (role peer)")
	workers := flag.Int("workers", 0, "validation workers (role peer; 0 = GOMAXPROCS)")
	rescue := flag.Bool("rescue", true, "post-order re-execution of conflict-aborted transactions: MVCC casualties, or under fabric#/focc-s the arrivals the scheduler would abort, deferred to the block's tail (must match cluster-wide; -rescue=false runs the paper's plain systems)")
	raftID := flag.String("raft-id", "", "this orderer's raft address (role orderer; must appear in -raft-cluster)")
	raftCluster := flag.String("raft-cluster", "", "comma-separated raft addresses of every ordering member (empty = standalone orderer)")
	raftRedirects := flag.String("raft-redirects", "", "comma-separated raftAddr=clientAddr pairs for NotLeader redirect hints")
	raftDir := flag.String("raft-dir", "", "persist raft term+vote under this directory (role orderer)")
	raftElection := flag.Duration("raft-election-timeout", 0, "base raft election timeout (0 = default)")
	workloadName := flag.String("workload", "", "registered scenario whose genesis state this node installs (identical cluster-wide; empty = no genesis)")
	accounts := flag.Int("accounts", 0, "scenario pool-size override (requires -workload; 0 = scenario default)")
	traceEvents := flag.Int("trace-events", 0, "stage-tracing ring capacity in events (0 = default; tracing is always on)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this loopback address (empty = off; docs/observability.md)")
	flag.Parse()

	names := splitNonEmpty(*peerNames)
	redirects, err := parseRedirects(*raftRedirects)
	if err != nil {
		fatal(err)
	}
	nf := nodeFlags{
		Role:          *role,
		Name:          *name,
		OrdererAddrs:  splitNonEmpty(*ordererAddr),
		PeerNames:     names,
		RaftID:        *raftID,
		RaftCluster:   splitNonEmpty(*raftCluster),
		RaftRedirects: redirects,
		RaftDir:       *raftDir,
		RaftElection:  *raftElection,
		Workload:      *workloadName,
		Accounts:      *accounts,
		Orderers:      *orderers,
	}
	if err := nf.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fabricnode:", err)
		fmt.Fprintln(os.Stderr, "usage: fabricnode -role orderer|peer [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() { fatal(http.ListenAndServe(*pprofAddr, nil)) }()
	}
	// Every node of a cluster resolves the same -workload/-accounts pair to
	// the same write set, so all replicas install bit-identical genesis.
	var genesis []protocol.WriteItem
	if *workloadName != "" {
		sc, _ := scenario.Get(*workloadName) // existence validated above
		genesis = sc.GenesisWrites(scenario.Params{Accounts: *accounts})
	}
	var (
		addr     string
		shutdown func() error
		errFn    func() error
	)
	switch *role {
	case "orderer":
		ord, err := node.StartOrderer(node.OrdererConfig{
			Options: orderer.Options{
				System:       sched.System(*system),
				BlockSize:    *blockSize,
				BlockTimeout: *blockTimeout,
				MaxSpan:      *maxSpan,
				CompactEvery: *compactEvery,
				DedupHorizon: *dedupHorizon,
				Rescue:       *rescue,
				Genesis:      genesis,
			},
			Listen:              *listen,
			PeerNames:           names,
			RaftID:              *raftID,
			RaftCluster:         nf.RaftCluster,
			RaftRedirects:       redirects,
			RaftDir:             *raftDir,
			RaftElectionTimeout: *raftElection,
			TraceEvents:         *traceEvents,
		})
		if err != nil {
			fatal(err)
		}
		addr, shutdown, errFn = ord.Addr(), ord.Close, ord.Err
	case "peer":
		p, err := node.StartPeer(node.PeerConfig{
			Name:              *name,
			Listen:            *listen,
			OrdererAddrs:      nf.OrdererAddrs,
			System:            sched.System(*system),
			PeerNames:         names,
			DataDir:           *dataDir,
			ValidationWorkers: *workers,
			Rescue:            *rescue,
			Genesis:           genesis,
			TraceEvents:       *traceEvents,
		})
		if err != nil {
			fatal(err)
		}
		addr, shutdown, errFn = p.Addr(), p.Close, p.Err
		if *dataDir != "" {
			// Where the store left off; the subscription pulls only what
			// lies above it (the chaos smoke checks a killed peer's line).
			fmt.Printf("fabricnode peer %s: store %s resumes at block %d\n", *name, *dataDir, p.ResumedAt())
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: fabricnode -role orderer|peer [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// The listen line is machine-readable: harnesses parse it to learn
	// ephemeral ports.
	fmt.Printf("fabricnode %s listening on %s (system %s, peers %s)\n",
		*role, addr, *system, strings.Join(names, ","))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case s := <-sig:
			fmt.Printf("fabricnode %s: %v, shutting down\n", *role, s)
			if err := shutdown(); err != nil {
				fatal(err)
			}
			return
		case <-ticker.C:
			if err := errFn(); err != nil {
				_ = shutdown()
				fatal(err)
			}
		}
	}
}

// parseRedirects parses "raftAddr=clientAddr,raftAddr=clientAddr" pairs.
func parseRedirects(s string) (map[string]string, error) {
	pairs := splitNonEmpty(s)
	if len(pairs) == 0 {
		return nil, nil
	}
	out := make(map[string]string, len(pairs))
	for _, p := range pairs {
		raftAddr, clientAddr, ok := strings.Cut(p, "=")
		if !ok || raftAddr == "" || clientAddr == "" {
			return nil, fmt.Errorf("malformed -raft-redirects entry %q (want raftAddr=clientAddr)", p)
		}
		out[raftAddr] = clientAddr
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fabricnode:", err)
	os.Exit(1)
}
