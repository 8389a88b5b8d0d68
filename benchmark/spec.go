package main

import "time"

// Cluster and driver constants, identical for every workload and frozen with
// the benchmark: a later change is measured through the same instrument.
const (
	// poolClients is the fixed wire-client pool. A Conn carries one call at a
	// time and a transaction is in flight for about one block-cut interval,
	// so connections must be >= rate x 0.1 s; 512 covers every rung below and
	// gives the closed loop enough callers to saturate a standalone orderer.
	poolClients  = 512
	blockSize    = 100
	blockTimeout = 100 * time.Millisecond
	scenarioName = "msmallbank"
	peerCount    = 2

	// SLO of one open-loop rung.
	sloP99MS         = 300.0
	sloAchievedShare = 0.95

	// A run whose pacer hands jobs over later than this at p99 at r2 is
	// marked generator_bound.
	generatorBoundLateMS = 20.0

	// After the window closes, queued submissions get this long to start;
	// what is still queued then is counted never-sent (failed).
	drainGrace = time.Second
)

// workloadSpec is one cluster shape plus its traffic.
type workloadSpec struct {
	Name     string
	Why      string
	System   string
	Raft     bool // three Raft orderer processes, else one standalone orderer
	Durable  bool // peers persist to -data-dir (kvstore)
	Rescue   bool
	Accounts int
	ReadHot  float64
	WriteHot float64
	// Rates are the open-loop rungs r1..r3, x2 apart, calibrated on the seed
	// so that r3 is the last rung that meets the SLO (README, "Calibration").
	Rates [3]int
	// SatClients is how many of the pool's clients the closed loop uses: all
	// of them, except where the seed collapses under that many (README,
	// "Calibration").
	SatClients int
}

var workloads = []workloadSpec{
	{
		Name:   "solo-uniform",
		Why:    "single standalone orderer, in-memory peers, no contention: client submit/poll, block cut, delivery and peer commit do all the work",
		System: "fabric#", Accounts: 100000,
		Rates: [3]int{400, 800, 1600}, SatClients: poolClients,
	},
	{
		Name:   "raft-durable",
		Why:    "same traffic through three Raft orderer processes and kvstore-backed peers: replicated ordering and persistence do most of the work",
		System: "fabric#", Raft: true, Durable: true, Accounts: 100000,
		Rates: [3]int{75, 150, 300}, SatClients: 64,
	},
	{
		Name:   "solo-hot",
		Why:    "hot keys under fabric#: the dependency graph and pre-ordering aborts decide how much of the offered load commits",
		System: "fabric#", Accounts: 10000, ReadHot: 0.5, WriteHot: 0.5,
		Rates: [3]int{400, 800, 1600}, SatClients: poolClients,
	},
	{
		Name:   "solo-hot-rescue",
		Why:    "the same hot traffic under vanilla fabric with rescue: conflicts go through MVCC validation and re-execution instead of the scheduler",
		System: "fabric", Rescue: true, Accounts: 10000, ReadHot: 0.5, WriteHot: 0.5,
		Rates: [3]int{400, 800, 1600}, SatClients: poolClients,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported figure. The lists below are the single source
// of the names the harness prints; BENCHMARK.json repeats them and a test
// holds the two together.
type metricDef struct {
	Name string
	Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"commit_share", "ratio"},
	{"cpu_s_per_ktx", "s"},
	{"rss_mb", "MiB"},
}

// clusterLayerMetrics come from the traced cluster run; layerTableMetrics
// (layers.go) from the in-process loops. Together they are per_layer.
var clusterLayerMetrics = []metricDef{
	{"max_rate_in_slo_tps", "tx/s"},
	{"sat_tps", "tx/s"},
	{"sat_goodput_tps", "tx/s"},
	{"fail_share", "ratio"},
	{"driver.queue_wait_p99_ms", "ms"},
	{"driver.late_p99_ms", "ms"},
	{"driver.cpu_s_per_ktx", "s"},
	{"driver.tracing_overhead_pct", "%"},
	{"node.endorse_to_submit_p50_ms", "ms"},
	{"node.seal_to_result_p50_ms", "ms"},
	{"node.seal_to_result_p99_ms", "ms"},
	{"node.orderer_cpu_s_per_ktx", "s"},
	{"node.peer_cpu_s_per_ktx", "s"},
	{"node.orderer_rss_mb", "MiB"},
	{"node.peer_rss_mb", "MiB"},
	{"transport.seal_to_deliver_p50_ms", "ms"},
	{"transport.seal_to_deliver_p99_ms", "ms"},
	{"transport.redirects", "count"},
	{"consensus.submit_to_order_p50_ms", "ms"},
	{"consensus.submit_to_order_p99_ms", "ms"},
	{"consensus.elections", "count"},
	{"sched.order_to_seal_p50_ms", "ms"},
	{"sched.order_to_seal_p99_ms", "ms"},
	{"sched.txs_per_block", "count"},
	{"sched.preorder_abort_share", "ratio"},
	{"validation.mvcc_abort_share", "ratio"},
	{"reexec.rescued_share", "ratio"},
	{"commit.deliver_to_validate_p50_ms", "ms"},
	{"commit.validate_to_commit_p50_ms", "ms"},
	{"commit.validate_to_commit_p99_ms", "ms"},
	{"kvstore.disk_bytes_per_tx", "bytes"},
	{"trace.coverage_pct", "%"},
	{"trace.unexplained_ms", "ms"},
	{"layers.unexplained_cpu_share", "ratio"},
}
