// Command benchmark is the repository's frozen end-to-end instrument: for a
// workload it boots a real multi-process fabricnode cluster on loopback,
// drives it from 512 wire clients in this one process, checks that every
// replica ends bit-identical, and prints the metrics BENCHMARK.json names.
// README.md beside this file says why each workload and metric exists.
//
// The acceptance driver runs it through run.sh as
//
//	bash benchmark/run.sh --workload solo-uniform --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output. By hand, from this directory,
//
//	go run . -seed 1 -out record.json      # every workload, both plans
//	go run . -workload solo-hot -repeat 5  # run-to-run spread of one workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"fabricsharp/benchmark/layers"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: worker w draws its operations from rng(seed+w)")
	seconds := flag.Int("seconds", 20, "measuring time of one run, shared equally by its phases")
	traceFlag := flag.String("trace", "both", "0 = end-to-end plan, 1 = traced plan with the layer table, both")
	repeat := flag.Int("repeat", 1, "repeat the end-to-end plan on this many consecutive seeds and print the spread")
	out := flag.String("out", "", "also write every run's full record to this file as JSON")
	nodeBin := flag.String("node-bin", "", "prebuilt fabricnode binary (default: go build it into the work directory)")
	workDir := flag.String("work-dir", ".bench_build/work", "directory for node logs, durable state and built binaries")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *repeat < 1 {
		fatalf("-seconds and -repeat must be positive")
	}

	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{spec}
	}
	var plans []bool // traced?
	switch *traceFlag {
	case "0":
		plans = []bool{false}
	case "1":
		plans = []bool{true}
	case "both":
		plans = []bool{false, true}
	default:
		fatalf("-trace must be 0, 1 or both")
	}
	if *repeat > 1 {
		plans = []bool{false}
	}

	work, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *nodeBin == "" {
		*nodeBin = filepath.Join(work, "fabricnode")
		build := exec.Command("go", "build", "-o", *nodeBin, "fabricsharp/cmd/fabricnode")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			fatalf("build fabricnode (run from the benchmark directory): %v", err)
		}
	}

	fmt.Printf("cluster: block size %d, cut timer %s, %d peers, %d wire clients, no injected message delay (loopback: latency is processor time plus the cut timer)\n",
		blockSize, blockTimeout, peerCount, poolClients)
	var records []*runResult
	ok := true
	for _, spec := range specs {
		byMetric := map[string][]float64{}
		for i := 0; i < *repeat; i++ {
			for _, traced := range plans {
				dir := filepath.Join(work, fmt.Sprintf("%s-%d-%v", spec.Name, i, traced))
				res, err := runOnce(*nodeBin, dir, spec, *seed+int64(i), *seconds, traced)
				if err != nil {
					fatalf("%s: %v (logs kept under %s)", spec.Name, err, dir)
				}
				records = append(records, res)
				ok = ok && res.Correct
				printRun(res)
				for name, m := range res.Metrics {
					byMetric[name] = append(byMetric[name], m.Value)
				}
			}
		}
		if *repeat > 1 {
			printSpread(spec.Name, byMetric)
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if ok {
		_ = os.RemoveAll(work)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: correctness gate failed; logs kept under %s\n", work)
	}
	// The contract line: the last run's result, and nothing after it.
	last := records[len(records)-1]
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOnce is one invocation's worth of work for one workload: the cluster
// run and, on the traced plan, the in-process layer table after the cluster
// is gone, so the two do not compete for the processor.
func runOnce(nodeBin, dir string, spec workloadSpec, seed int64, seconds int, traced bool) (*runResult, error) {
	res, err := runWorkload(nodeBin, dir, spec, seed, seconds, traced)
	if err != nil || !traced {
		return res, err
	}
	layerDir := filepath.Join(dir, "layers")
	if err := os.MkdirAll(layerDir, 0o755); err != nil {
		return nil, err
	}
	table, err := layers.Run(seed, layerDir)
	if err != nil {
		return nil, err
	}
	for _, d := range layers.Metrics() {
		res.Metrics[d.Name] = metric{table[d.Name], d.Unit}
	}
	nodeCPU := res.Metrics["node.orderer_cpu_s_per_ktx"].Value + res.Metrics["node.peer_cpu_s_per_ktx"].Value
	share := 0.0
	if nodeCPU > 0 {
		share = 1 - layerCPUPerKtx(spec, table, res.Metrics)/nodeCPU
	}
	res.Metrics["layers.unexplained_cpu_share"] = metric{share, "ratio"}
	return res, nil
}

// layerCPUPerKtx adds up, from the layer table, the processor seconds the
// node processes should spend per 1000 committed transactions: what the
// endorsing peer, every orderer replica and every validating peer do to one
// transaction. Work done for transactions that then abort before ordering
// is charged to the ones that commit. What the cluster spends beyond this
// sum (polling, syscalls, scheduling, garbage collection) is the remainder
// layers.unexplained_cpu_share reports.
func layerCPUPerKtx(spec workloadSpec, t map[string]float64, cluster map[string]metric) float64 {
	orderers := 1.0
	if spec.Raft {
		orderers = 3
	}
	arrival := t["sched.arrival_ns_per_tx.sharp"]/1000 + t["sched.formation_us_per_block.sharp"]/blockSize
	if spec.System == "fabric" {
		arrival = t["sched.arrival_ns_per_tx.fabric"] / 1000
	}
	// Microseconds per offered transaction, paid whether or not it commits.
	offered := t["chaincode.simulate_us_per_tx"] + t["identity.sign_us"] +
		orderers*(t["wire.decode_tx_ns"]/1000+arrival)
	// Microseconds per transaction that reaches a block.
	sealed := orderers*(t["validation.precheck_endorse_us_per_tx"]+t["validation.verdicts_ns_per_tx"]/1000+
		t["ledger.seal_us_per_block"]/blockSize) +
		peerCount*(t["wire.encode_block_ns_per_tx"]/1000+t["wire.decode_block_ns_per_tx"]/1000+
			t["commit.validate_apply_us_per_tx"]+t["ledger.append_us_per_block"]/blockSize)
	rescued := (orderers + peerCount) * t["reexec.run_us_per_tx_contended"] * cluster["reexec.rescued_share"].Value
	early := cluster["sched.preorder_abort_share"].Value
	committed := 1 - early - cluster["validation.mvcc_abort_share"].Value
	if committed <= 0 {
		return 0
	}
	us := (offered + (1-early)*sealed + rescued) / committed
	return us / 1000 // 1 us per transaction is 1 ms, 0.001 s, per 1000 of them
}

func printRun(res *runResult) {
	plan := "end-to-end"
	if res.Traced {
		plan = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %d s  %s plan ==\n", res.Workload, res.Seed, res.Seconds, plan)
	for _, ph := range res.Phases {
		load := fmt.Sprintf("open loop %d tx/s", ph.Rate)
		if ph.Rate == 0 {
			load = fmt.Sprintf("closed loop %d clients", ph.Clients)
		}
		slo := ""
		if ph.Rate > 0 {
			slo = fmt.Sprintf("  slo=%v", ph.MeetsSLO)
		}
		fmt.Printf("%-11s %-24s offered %6d  committed %6d  aborted %6d  failed %3d  %7.1f verdicts/s  p50 %7.2f ms  p%d %7.2f ms (%d samples)  late p99 %.2f ms%s\n",
			ph.Name, load, ph.Offered, ph.Committed, ph.Aborted, ph.Failed, ph.VerdictTPS,
			ph.P50MS, ph.TailPct, ph.TailMS, ph.Samples, ph.LateP99MS, slo)
	}
	printMetrics(res.Metrics)
	printMetrics(res.Extra)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", res.Workload, res.Seed, p)
	}
	if res.GeneratorBound {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: generator_bound: the pacer ran more than %g ms late at p99 at r2\n", res.Workload, res.Seed, generatorBoundLateMS)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d generator_bound=%v\n", res.Correct, res.Attempted, res.Failed, res.GeneratorBound)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-42s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// printSpread is the noise calibration: per end-to-end metric the median,
// the quartiles and their distance as a share of the median, over the
// repeated seeds.
func printSpread(workload string, byMetric map[string][]float64) {
	fmt.Printf("\n== %s: spread over %d seeds ==\n", workload, len(byMetric[endToEndMetrics[0].Name]))
	fmt.Printf("  %-18s %12s %12s %12s %9s\n", "metric", "q1", "median", "q3", "spread")
	for _, d := range endToEndMetrics {
		v := byMetric[d.Name]
		if len(v) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.1f%%  %s\n", d.Name, q1, q2, q3, 100*spread(v), strings.TrimSpace(d.Unit))
	}
}
