package node

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fabricsharp/internal/orderer"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
)

// bootScenarioCluster boots an orderer and n peers whose replicas all
// install the named scenario's genesis — the cluster shape `sharpnet load`
// drives (account pools seeded at block 0, not via setup transactions).
func bootScenarioCluster(t *testing.T, system sched.System, n int, workload string, accounts int) (*Orderer, []*Peer) {
	t.Helper()
	sc, ok := scenario.Get(workload)
	if !ok {
		t.Fatalf("unknown scenario %q", workload)
	}
	genesis := func() (*statedb.Base, error) { return sc.GenesisBase(scenario.Params{Accounts: accounts}) }
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i)
	}
	ord, err := StartOrderer(OrdererConfig{
		Options: orderer.Options{
			System:       system,
			BlockSize:    25,
			BlockTimeout: 25 * time.Millisecond,
			Genesis:      genesis,
		},
		Listen:    "127.0.0.1:0",
		PeerNames: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, "the orderer", func() { ord.Close() })
	peers := make([]*Peer, n)
	for i := range peers {
		p, err := StartPeer(PeerConfig{
			Name:         names[i],
			Listen:       "127.0.0.1:0",
			OrdererAddrs: []string{ord.Addr()},
			System:       system,
			PeerNames:    names,
			Genesis:      genesis,
		})
		if err != nil {
			t.Fatal(err)
		}
		closeAtCleanup(t, "a peer", func() { p.Close() })
		peers[i] = p
	}
	return ord, peers
}

func TestLoadOptionsValidate(t *testing.T) {
	cluster := []string{"127.0.0.1:1"}
	good := LoadOptions{Orderers: cluster, Peers: cluster, TargetTPS: 100, Duration: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for name, opts := range map[string]LoadOptions{
		"no cluster":   {TargetTPS: 100, Duration: time.Second},
		"zero tps":     {Orderers: cluster, Peers: cluster, Duration: time.Second},
		"zero window":  {Orderers: cluster, Peers: cluster, TargetTPS: 100},
		"bad workload": {Orderers: cluster, Peers: cluster, TargetTPS: 100, Duration: time.Second, Workload: "nope"},
	} {
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

// TestOpenLoopLoadWithTraceCoverage is the end-to-end loop: an open-loop
// run against a live cluster, then the trace rings drained over the wire
// and merged into timelines covering the committed transactions.
func TestOpenLoopLoadWithTraceCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full wire cluster")
	}
	ord, peers := bootScenarioCluster(t, sched.SystemSharp, 2, "msmallbank", 64)
	report, err := RunLoad(context.Background(), LoadOptions{
		Orderers:  []string{ord.Addr()},
		Peers:     peerAddrs(peers),
		TargetTPS: 100,
		Duration:  1500 * time.Millisecond,
		Workload:  "msmallbank",
		Accounts:  64,
		Workers:   8,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Committed == 0 {
		t.Fatal("open-loop run committed nothing")
	}
	if report.Failed > 0 {
		t.Fatalf("%d submissions failed", report.Failed)
	}
	if report.Offered+report.Dropped == 0 {
		t.Fatal("pacer scheduled nothing")
	}
	// Loose sanity floor only — the acceptance-level ≥95% assertion runs in
	// the cluster smoke where the machine isn't also running -race tests.
	if report.AchievedTPS < 0.3*float64(report.TargetTPS) {
		t.Errorf("achieved %.0f tps against target %d", report.AchievedTPS, report.TargetTPS)
	}
	if report.LatencyP50MS <= 0 || report.LatencyP99MS < report.LatencyP50MS {
		t.Errorf("implausible latency quantiles: p50=%.2fms p99=%.2fms", report.LatencyP50MS, report.LatencyP99MS)
	}

	// Every committed transaction must show a full timeline once the peers
	// finish applying delivered blocks; poll because commit-stage events
	// trail the client acks.
	addrs := append([]string{ord.Addr()}, peerAddrs(peers)...)
	deadline := time.Now().Add(30 * time.Second)
	var cov float64
	for {
		tls, dumps, err := FetchTimelines(addrs, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cov = trace.Coverage(tls, report.CommittedIDs,
			trace.StageSubmit, trace.StageOrder, trace.StageSeal,
			trace.StageDeliver, trace.StageValidate, trace.StageCommit)
		if cov >= 0.99 {
			sum := trace.Summarize(tls)
			if sum.Total.N == 0 {
				t.Fatal("summary has no submit→commit totals")
			}
			for _, d := range dumps {
				if d.Recorded == 0 {
					t.Errorf("node %s recorded nothing", d.Node)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace coverage %.3f never reached 0.99 for %d committed txs", cov, len(report.CommittedIDs))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSecondLoadSubmitsNewTransactions runs two loads against one library
// network: each names its clients afresh, so every transaction either acks
// committed is a new one, and the orderer's committed count grows by the sum
// of the two loads' committed totals. Were the names fixed, the second
// load's TxIDs would repeat the first's, and the dedup horizon would answer
// them with the first load's verdicts.
func TestSecondLoadSubmitsNewTransactions(t *testing.T) {
	sc, _ := scenario.Get("msmallbank")
	n := newTestNetwork(t, NetworkOptions{
		System: sched.SystemSharp, Peers: 2, BlockSize: 25, BlockTimeout: 25 * time.Millisecond,
		Genesis: func() (*statedb.Base, error) { return sc.GenesisBase(scenario.Params{Accounts: 64}) },
	})
	committed := func() uint64 {
		_, _, c := n.OrdererChain().Status()
		return c
	}
	before := committed()
	var total uint64
	for run := 0; run < 2; run++ {
		report, err := RunLoad(context.Background(), LoadOptions{
			Orderers:  []string{n.orderer.Addr()},
			Peers:     peerAddrs(n.peers),
			TargetTPS: 100,
			Duration:  500 * time.Millisecond,
			Accounts:  64,
			Workers:   4,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Failed > 0 || report.Committed == 0 {
			t.Fatalf("load %d: %d committed, %d failed", run, report.Committed, report.Failed)
		}
		total += report.Committed
	}
	if grew := committed() - before; grew != total {
		t.Fatalf("the orderer committed %d transactions, the two loads acked %d", grew, total)
	}
}

// TestTraceDumpOverWire pins the per-role stage vocabulary: orderer rings
// carry submit/order/seal, peer rings carry deliver/validate/commit.
func TestTraceDumpOverWire(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 2)
	client, err := DialClient("tracer", []string{ord.Addr()}, peerAddrs(peers), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	committed, _ := driveContended(t, client, 20, 4)
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	awaitConvergence(t, ord, peerAddrs(peers))

	ordDump, err := TraceAt(ord.Addr(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ordDump.Role != "orderer" || ordDump.Node != "orderer0" {
		t.Fatalf("orderer dump identifies as %s/%s", ordDump.Node, ordDump.Role)
	}
	wantStages(t, "orderer", ordDump, trace.StageSubmit, trace.StageOrder, trace.StageSeal)
	for i, p := range peers {
		dump, err := TraceAt(p.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if dump.Role != "peer" || dump.Node != fmt.Sprintf("peer%d", i) {
			t.Fatalf("peer dump identifies as %s/%s", dump.Node, dump.Role)
		}
		wantStages(t, dump.Node, dump, trace.StageDeliver, trace.StageValidate, trace.StageCommit)
	}
}

// TestGenesisSpanOnEveryNode: every node that boots from the genesis, the
// orderer and each peer, holds one genesis span at block 0 on its ring, as
// `sharpnet trace` drains it.
func TestGenesisSpanOnEveryNode(t *testing.T) {
	ord, peers := bootScenarioCluster(t, sched.SystemSharp, 2, "msmallbank", 1000)
	for _, addr := range append([]string{ord.Addr()}, peerAddrs(peers)...) {
		d, err := TraceAt(addr, dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if spans := trace.Spans(d, trace.StageGenesis); len(spans) != 1 || spans[0].Block != 0 || spans[0].NS <= 0 {
			t.Errorf("%s ring holds genesis spans %+v, want one at block 0", d.Node, spans)
		}
	}
}

func wantStages(t *testing.T, node string, d trace.Dump, stages ...trace.Stage) {
	t.Helper()
	seen := map[trace.Stage]bool{}
	for _, ev := range d.Events {
		seen[ev.Stage] = true
	}
	for _, s := range stages {
		if !seen[s] {
			t.Errorf("%s ring has no %v events (stages seen: %v)", node, s, seen)
		}
	}
}

// TestLoadWorkersSubmitSideBySide: the load's workers submit concurrently,
// so a block the size of the worker pool fills long before its timeout. A
// worker that held a lock the others need across its submit would leave
// one transaction per block, each waiting the timeout out.
func TestLoadWorkersSubmitSideBySide(t *testing.T) {
	const workers = 8
	sc, _ := scenario.Get("msmallbank")
	n := newTestNetwork(t, NetworkOptions{
		System: sched.SystemSharp, Peers: 1, BlockSize: workers, BlockTimeout: time.Second,
		Genesis: func() (*statedb.Base, error) { return sc.GenesisBase(scenario.Params{Accounts: 64}) },
	})
	within(t, 5*time.Second, "a 40-submission load", func() {
		report, err := RunLoad(context.Background(), LoadOptions{
			Orderers:  []string{n.orderer.Addr()},
			Peers:     peerAddrs(n.peers),
			TargetTPS: 4 * workers * 10,
			Duration:  125 * time.Millisecond,
			Accounts:  64,
			Workers:   workers,
			Seed:      1,
		})
		if err != nil || report.Failed > 0 {
			t.Errorf("load: %v, %d failed", err, report.Failed)
		}
	})
}
