package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/trace"
)

// loadFlags configures `sharpnet load`: the flag set maps one to one onto
// the library's open-loop generator options.
type loadFlags node.LoadOptions

func (f loadFlags) validate() error {
	if len(f.Orderers) == 0 || len(f.Peers) == 0 {
		return fmt.Errorf("load requires -orderer and -peer-addrs")
	}
	if f.TargetTPS <= 0 {
		return fmt.Errorf("load requires -target-tps: the offered rate in tx/s, got %d", f.TargetTPS)
	}
	if f.Accounts < 0 {
		return fmt.Errorf("-accounts must be non-negative (0 = scenario default), got %d", f.Accounts)
	}
	return node.LoadOptions(f).Validate()
}

func cmdLoad(args []string) int {
	fs := flag.NewFlagSet("sharpnet load", flag.ExitOnError)
	var f loadFlags
	var orderers, peers string
	fs.StringVar(&orderers, "orderer", "", "comma-separated orderer addresses")
	fs.StringVar(&peers, "peer-addrs", "", "comma-separated peer addresses")
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 30*time.Second, "how long to retry dialing the cluster")
	fs.IntVar(&f.TargetTPS, "target-tps", 0, "offered rate in tx/s (required)")
	fs.DurationVar(&f.Duration, "duration", 10*time.Second, "how long to offer load")
	fs.StringVar(&f.Workload, "workload", "", "registered scenario to drive (default msmallbank); the cluster must have been booted with the same -workload/-accounts genesis")
	fs.IntVar(&f.Accounts, "accounts", 0, "scenario pool-size override (0 = scenario default)")
	fs.Int64Var(&f.Seed, "seed", 42, "base seed; worker i draws from an explicit rand.Rand seeded with seed+i")
	fs.IntVar(&f.Workers, "workers", 0, "submission concurrency (0 = 4×GOMAXPROCS)")
	fs.Float64Var(&f.Theta, "theta", 0, "zipfian skew over the account pool (0 = scenario default)")
	fs.Float64Var(&f.ReadHot, "read-hot", 0, "modified-SmallBank hot-read ratio (0 = scenario default)")
	fs.Float64Var(&f.WriteHot, "write-hot", 0, "modified-SmallBank hot-write ratio (0 = scenario default)")
	_ = fs.Parse(args)
	f.Orderers, f.Peers = splitAddrs(orderers), splitAddrs(peers)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet load:", err)
		fs.Usage()
		return 2
	}
	return load(node.LoadOptions(f))
}

// fullPipelineStages is the stage set every committed transaction must
// exhibit for the coverage assertion. raft-commit is omitted, as only the
// orderer that accepted the submit records it; a killed leader takes that
// ring and its submit stamps with it (the CHAOS=1 smoke reads about 40 %).
var fullPipelineStages = []trace.Stage{
	trace.StageSubmit, trace.StageOrder, trace.StageSeal,
	trace.StageDeliver, trace.StageValidate, trace.StageCommit,
}

// load runs the rate-paced generator, then joins every node's stage ring
// into the per-stage latency report.
func load(opts node.LoadOptions) int {
	report, err := node.RunLoad(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet load:", err)
		return 1
	}
	workloadName := opts.Workload
	if workloadName == "" {
		workloadName = "msmallbank"
	}
	fmt.Printf("target     %d tx/s for %s (workload %s)\n", report.TargetTPS, opts.Duration, workloadName)
	fmt.Printf("offered    %d scheduled, %d dropped\n", report.Offered, report.Dropped)
	fmt.Printf("completed  %d committed, %d aborted, %d failed in %.1fs\n",
		report.Committed, report.Aborted, report.Failed, report.Elapsed.Seconds())
	fmt.Printf("achieved   %.0f tx/s\n", report.AchievedTPS)
	fmt.Printf("latency    p50 %.1fms  p90 %.1fms  p99 %.1fms  p99.9 %.1fms  max %.1fms (from scheduled instant)\n",
		report.LatencyP50MS, report.LatencyP90MS, report.LatencyP99MS, report.LatencyP999MS, report.LatencyMaxMS)

	// Convergence before draining the rings: peers may still be applying
	// delivered blocks, and commit-stage events trail the client acks.
	if why := awaitAgreement(opts.Orderers, opts.Peers, 0, 60*time.Second); why != "" {
		fmt.Fprintf(os.Stderr, "CONVERGENCE FAILED: %s\n", why)
		return 1
	}
	addrs := append(append([]string{}, opts.Orderers...), opts.Peers...)
	deadline := time.Now().Add(30 * time.Second)
	var tls []trace.Timeline
	var cov float64
	for {
		var err error
		tls, _, err = node.FetchTimelines(addrs, opts.DialTimeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sharpnet load:", err)
			return 1
		}
		cov = trace.Coverage(tls, report.CommittedIDs, fullPipelineStages...)
		if cov >= 0.995 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println()
	fmt.Print(trace.Summarize(tls).Format())

	// Machine-readable tally for harnesses (the cluster smoke asserts all
	// four; check mode re-asserts COMMITTED_TOTAL against the ledger).
	fmt.Printf("COMMITTED_TOTAL %d\n", report.Committed)
	fmt.Printf("ACHIEVED_TPS %.1f\n", report.AchievedTPS)
	fmt.Printf("LATENCY_P50_MS %.2f\n", report.LatencyP50MS)
	fmt.Printf("LATENCY_P99_MS %.2f\n", report.LatencyP99MS)
	fmt.Printf("TRACE_COVERAGE_PCT %.2f\n", 100*cov)
	if report.Failed > 0 {
		fmt.Fprintln(os.Stderr, "LOAD FAILED: some submissions errored")
		return 1
	}
	fmt.Println("CONVERGED: all peers at bit-identical chain tips and state fingerprints")
	return 0
}
