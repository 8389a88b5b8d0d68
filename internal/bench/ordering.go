package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/validation"
)

// OrderingShape describes a synthetic consensus stream fed straight into a
// scheduler — the ordering-phase hot path (Algorithm 2 + Algorithm 3) with no
// simulation, consensus transport, or commit pipeline around it. Shapes model
// SmallBank's SendPayment: each transaction reads two checking accounts and
// overwrites both.
type OrderingShape struct {
	// Name labels the shape in tables and JSON records.
	Name string
	// Hot is the size of the contended account pool; 0 means conflict-free
	// (every transaction touches its own disjoint accounts).
	Hot int
	// HotProb is the probability that an account is drawn from the hot pool.
	HotProb float64
	// Accounts is the cold key-space size.
	Accounts int
	// Rotate, when positive, rotates the whole account pool every Rotate
	// transactions: generation i/Rotate draws from a disjoint key space —
	// the churn workload whose total key universe grows without bound while
	// its working set stays Accounts-sized.
	Rotate int
}

// OrderingShapes are the canonical shapes of the perf trajectory: a
// conflict-free stream (pure data-structure cost, no dependency edges), a
// contended stream (the graph, reachability, and reordering machinery under
// load), and a churn stream (rotating key space, showing that the
// schedulers' resident keys stay bounded by the max-span horizon).
func OrderingShapes() []OrderingShape {
	return []OrderingShape{
		{Name: "conflict-free", Accounts: 1 << 20},
		{Name: "contended", Hot: 64, HotProb: 0.5, Accounts: 1 << 20},
		{Name: "churn", Accounts: 2048, Rotate: 2000},
	}
}

// Stream pre-generates n transactions of this shape. Each carries a full
// smallbank send_payment invocation (contract, function, args) so the
// post-order rescue phase can re-execute it; the account ids are chosen so
// chaincode.CheckingKey reproduces the historical key strings byte-for-byte
// ("checking:h5", "checking:c17", "checking:g3:9"). SnapshotBlock is filled
// in by the driver at submission time (it must track the scheduler's height).
func (s OrderingShape) Stream(n int, seed int64) []*protocol.Transaction {
	rng := rand.New(rand.NewSource(seed))
	account := func(i int, slot int) string {
		if s.Rotate > 0 {
			// Churn: every generation is a fresh, disjoint key space.
			return fmt.Sprintf("g%d:%d", i/s.Rotate, rng.Intn(s.Accounts))
		}
		if s.Hot > 0 && rng.Float64() < s.HotProb {
			return fmt.Sprintf("h%d", rng.Intn(s.Hot))
		}
		if s.Hot == 0 {
			// Conflict-free: accounts derived from the transaction index.
			return fmt.Sprintf("c%d", 2*i+slot)
		}
		return fmt.Sprintf("c%d", rng.Intn(s.Accounts))
	}
	txs := make([]*protocol.Transaction, n)
	for i := range txs {
		src, dst := account(i, 0), account(i, 1)
		srcKey, dstKey := chaincode.CheckingKey(src), chaincode.CheckingKey(dst)
		tx := &protocol.Transaction{
			ID:       protocol.TxID(fmt.Sprintf("ord%d", i)),
			Contract: "smallbank",
			Function: "send_payment",
			Args:     []string{src, dst, "1"},
			RWSet: protocol.RWSet{
				Reads: []protocol.ReadItem{{Key: srcKey}, {Key: dstKey}},
				Writes: []protocol.WriteItem{
					{Key: srcKey, Value: []byte("balance")},
					{Key: dstKey, Value: []byte("balance")},
				},
			},
		}
		tx.RWSet.Precompute()
		txs[i] = tx
	}
	return txs
}

// OrderingResult is one (system, shape) measurement of the ordering hot path.
type OrderingResult struct {
	System string `json:"system"`
	Shape  string `json:"shape"`
	Txs    int    `json:"txs"`
	Blocks int    `json:"blocks"`
	// Admitted counts transactions surviving OnArrival; Committed counts
	// transactions emitted in formed blocks; Valid counts the transactions
	// the shadow validator judged Valid (the effective-throughput numerator
	// — for MVCC systems the emitted blocks still carry doomed
	// transactions).
	// omitempty keeps pre-PR-3 trajectory records (which never measured
	// validity) from being rewritten with a spurious zero.
	Admitted  int `json:"admitted"`
	Committed int `json:"committed"`
	Valid     int `json:"valid,omitempty"`
	// Rescue marks a run with the post-order re-execution phase enabled;
	// Rescued counts MVCC casualties it returned to the committed set (they
	// add to Valid in the effective-throughput numerator).
	Rescue  bool `json:"rescue,omitempty"`
	Rescued int  `json:"rescued,omitempty"`
	// ArrivalUSPerTx is the scheduler-reported mean arrival latency (µs).
	ArrivalUSPerTx float64 `json:"arrival_us_per_tx"`
	// FormationMSPerBlock is the scheduler-reported mean formation latency.
	FormationMSPerBlock float64 `json:"formation_ms_per_block"`
	// AllocsPerTx and BytesPerTx cover the whole drive loop (arrivals plus
	// amortized formations), mallocs and bytes per submitted transaction.
	AllocsPerTx float64 `json:"allocs_per_tx"`
	BytesPerTx  float64 `json:"bytes_per_tx"`
	// TPS is submitted transactions per wall-clock second through the
	// scheduler (ordering-phase ceiling, not end-to-end throughput).
	TPS float64 `json:"tps"`
	// Goodput is committed transactions (Valid + Rescued) per wall-clock
	// second — the number the rescue phase exists to raise: it trades some
	// raw TPS (re-execution work) for a larger committed numerator.
	Goodput float64 `json:"goodput,omitempty"`
	// MaxResidentKeys is the peak Scheduler.ResidentKeys observed across the
	// run (sampled around every cut) — the memory-residency figure the churn
	// shape exists to bound. omitempty keeps pre-PR-4 records intact.
	MaxResidentKeys int `json:"max_resident_keys,omitempty"`
	// The Fabric# cut on the solo-hot graph (core's BenchmarkSharpFormationHot,
	// FormationMSPerBlock its whole): ms per block in each part, and the
	// graph it ran over. benchall leaves them empty.
	TopoMS       float64 `json:"topo_ms_per_block,omitempty"`
	RestoreWWMS  float64 `json:"restoreww_ms_per_block,omitempty"`
	PruneMS      float64 `json:"prune_ms_per_block,omitempty"`
	CommitTailMS float64 `json:"committail_ms_per_block,omitempty"`
	EdgesPerNode float64 `json:"edges_per_node,omitempty"`
	LiveNodes    float64 `json:"live_nodes,omitempty"`
}

// RunOrdering drives one scheduler over a pre-generated stream, cutting a
// block every blockSize arrivals, and reports wall-clock and allocation
// costs. Commit feedback is the orderer's real path: after each formation
// the shadow validator (validation.ComputeVerdicts over a value-free
// ShadowState) derives the deterministic verdicts the peers would compute,
// and those — not a blanket all-Valid — feed OnBlockCommitted, so Focc-l's
// doomed-transaction detection actually fires on the contended shape.
//
// Transactions are "endorsed" in a sliding window two blocks deep: their
// read versions and snapshot come from the shadow state as of the window's
// start, modelling the execution phase running concurrently with ordering
// (a transaction can land in a block formed after its snapshot, which is
// exactly what makes reads go stale under contention).
//
// With rescue enabled the run models the full orderer cut path of the rescue
// design: endorsement is a real chaincode simulation against a value-tracking
// shadow (pre-seeded with every account at a large balance), and each cut
// runs the post-order re-execution phase over the MVCC casualties before the
// verdicts feed back into the scheduler.
func RunOrdering(system sched.System, shape OrderingShape, txCount, blockSize int, seed int64, rescue bool) (OrderingResult, error) {
	txs := shape.Stream(txCount, seed)
	sc, err := sched.New(system, sched.Options{})
	if err != nil {
		return OrderingResult{}, err
	}
	res := OrderingResult{System: string(system), Shape: shape.Name, Txs: txCount, Rescue: rescue}
	height := uint64(0)
	shadow := validation.NewValueShadowState()
	vopts := validation.Options{MVCC: sc.NeedsMVCCValidation()}

	var registry *chaincode.Registry
	var contract chaincode.Contract
	if rescue {
		// The real contract: the rescue phase re-executes send_payment, so
		// the stream's balances must be genuine decimal integers, not
		// placeholder bytes. Seeding happens before the timed window; seed
		// versions sit below every real block.
		msc, ok := scenario.Get("mixed")
		if !ok {
			return OrderingResult{}, fmt.Errorf("bench: mixed scenario not registered")
		}
		registry = chaincode.NewRegistry(msc.Contracts()...)
		var found bool
		contract, found = registry.Get("smallbank")
		if !found {
			return OrderingResult{}, fmt.Errorf("bench: mixed scenario no longer deploys smallbank")
		}
		seeded := map[string]bool{}
		for _, tx := range txs {
			for _, id := range tx.Args[:2] {
				key := chaincode.CheckingKey(id)
				if !seeded[key] {
					seeded[key] = true
					shadow.Seed(key, []byte("1000000"), seqno.Commit(0, 1))
				}
			}
		}
	}

	endorsed := 0
	endorse := func(upTo int) {
		if upTo > len(txs) {
			upTo = len(txs)
		}
		for ; endorsed < upTo; endorsed++ {
			tx := txs[endorsed]
			tx.SnapshotBlock = height
			if rescue {
				// Real execution phase: simulate against the committed values
				// as of the window's start. Key sets match the declared ones
				// by construction (send_payment's keys are argument-derived).
				rwset, err := chaincode.Simulate(contract, tx.Function, tx.Args, shadowReader{shadow})
				if err != nil {
					panic(fmt.Sprintf("bench: endorsement simulation failed: %v", err))
				}
				tx.RWSet = rwset
				tx.RWSet.Precompute()
				continue
			}
			reads := tx.RWSet.Reads
			for j := range reads {
				ver, ok := shadow.Version(reads[j].Key)
				if !ok {
					ver = seqno.Seq{}
				}
				reads[j].Version = ver
			}
		}
	}

	sampleResidency := func() {
		if n := sc.ResidentKeys(); n > res.MaxResidentKeys {
			res.MaxResidentKeys = n
		}
	}
	cut := func() error {
		// Peak residency is sampled around each cut: before it (the batch's
		// keys on top of the retained ones) and after it (the retained keys
		// once the cut has pruned).
		sampleResidency()
		fr, err := sc.OnBlockFormation()
		if err != nil {
			return err
		}
		sampleResidency()
		if len(fr.Ordered) == 0 {
			return nil
		}
		height = fr.Block
		res.Blocks++
		res.Committed += len(fr.Ordered)
		codes := validation.ComputeVerdicts(shadow, fr.Block, fr.Ordered, vopts)
		var rescuedWrites [][]protocol.WriteItem
		if rescue {
			out := reexec.Run(shadow, fr.Block, fr.Ordered, codes,
				reexec.Options{Registry: registry, Workers: runtime.GOMAXPROCS(0)})
			codes = out.Codes
			rescuedWrites = out.Writes
		}
		shadow.ApplyRescued(fr.Block, fr.Ordered, codes, rescuedWrites)
		for _, c := range codes {
			switch c {
			case protocol.Valid:
				res.Valid++
			case protocol.Rescued:
				res.Rescued++
			}
		}
		sc.OnBlockCommitted(fr.Block, fr.Ordered, codes)
		return nil
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, tx := range txs {
		if i >= endorsed {
			endorse(i + 2*blockSize)
		}
		code, err := sc.OnArrival(tx)
		if err != nil {
			return OrderingResult{}, err
		}
		if code == protocol.Valid {
			res.Admitted++
		}
		if sc.PendingCount() >= blockSize {
			if err := cut(); err != nil {
				return OrderingResult{}, err
			}
		}
	}
	if err := cut(); err != nil {
		return OrderingResult{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	timing := sc.Timing()
	res.ArrivalUSPerTx = timing.MeanArrivalUS()
	res.FormationMSPerBlock = timing.MeanFormationMS()
	res.AllocsPerTx = float64(after.Mallocs-before.Mallocs) / float64(txCount)
	res.BytesPerTx = float64(after.TotalAlloc-before.TotalAlloc) / float64(txCount)
	if s := wall.Seconds(); s > 0 {
		res.TPS = float64(txCount) / s
		res.Goodput = float64(res.Valid+res.Rescued) / s
	}
	return res, nil
}

// shadowReader adapts a value-tracking ShadowState to chaincode.StateReader
// for the benchmark's endorsement simulations.
type shadowReader struct{ shadow *validation.ShadowState }

func (r shadowReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	v, ver, ok := r.shadow.Read(key)
	return v, ver, ok, nil
}

// orderingTxCount sizes the drive loop: long enough to amortize warm-up and
// cross several pruning horizons.
func orderingTxCount(o Options) int {
	if o.Quick {
		return 20000
	}
	return 100000
}

// rescueShapes are the shapes whose MVCC abort rate makes the rescue phase
// worth measuring (conflict-free has nothing to rescue).
var rescueShapes = map[string]bool{"contended": true, "churn": true}

// Ordering runs the ordering-phase hot-path benchmark for every system and
// shape and renders the table of the perf trajectory (PR 2 onwards). Systems
// that validate with MVCC additionally run the contended and churn shapes
// with the post-order rescue phase enabled ("+rescue" rows, PR 6).
func Ordering(o Options) (*Table, []OrderingResult, error) {
	t := &Table{
		Title: "Ordering-phase hot path: scheduler cost per submitted transaction",
		Columns: []string{"system", "shape", "arrival µs/tx", "formation ms/blk",
			"allocs/tx", "bytes/tx", "admitted", "valid", "rescued", "tps", "goodput", "max keys"},
		Comment: "schedulers driven directly with shadow-validator feedback (no consensus/commit around them); allocs amortize formations + verdicts; goodput = committed (valid+rescued) tx/s; +rescue rows re-execute MVCC casualties post-order; max keys = peak resident keys (sharp and focc-s: keys with state inside the max-span horizon; focc-l: keys with a committed version)",
	}
	var all []OrderingResult
	addRow := func(system sched.System, r OrderingResult) {
		label := systemLabel(system)
		if r.Rescue {
			label += "+rescue"
		}
		t.AddRow(label, r.Shape,
			fmt.Sprintf("%.2f", r.ArrivalUSPerTx),
			fmt.Sprintf("%.3f", r.FormationMSPerBlock),
			fmt.Sprintf("%.1f", r.AllocsPerTx),
			fmt.Sprintf("%.0f", r.BytesPerTx),
			fmt.Sprintf("%d/%d", r.Admitted, r.Txs),
			fmt.Sprintf("%d", r.Valid),
			fmt.Sprintf("%d", r.Rescued),
			fmt.Sprintf("%.0f", r.TPS),
			fmt.Sprintf("%.0f", r.Goodput),
			fmt.Sprintf("%d", r.MaxResidentKeys))
	}
	for _, system := range sched.Systems() {
		probe, err := sched.New(system, sched.Options{})
		if err != nil {
			return nil, nil, err
		}
		mvcc := probe.NeedsMVCCValidation()
		for _, shape := range OrderingShapes() {
			rescues := []bool{false}
			if mvcc && rescueShapes[shape.Name] {
				rescues = append(rescues, true)
			}
			for _, rescue := range rescues {
				r, err := RunOrdering(system, shape, orderingTxCount(o), Params.Defaults.BlockSize, o.Seed, rescue)
				if err != nil {
					return nil, nil, err
				}
				all = append(all, r)
				addRow(system, r)
			}
		}
	}
	return t, all, nil
}

// BenchRecord is one entry of BENCH.json, the repository's append-only
// benchmark trajectory. Kind says which half is filled: "ordering" records
// hold the scheduler hot-path Results that benchall measures; "cluster"
// records hold Runs copied from the multi-process benchmark's result lines
// (`bash benchmark/run.sh`), which no code here produces — the type exists
// so that appending an ordering record rewrites them intact.
type BenchRecord struct {
	Kind       string           `json:"kind"`
	Label      string           `json:"label"`
	Captured   string           `json:"captured"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	TxCount    int              `json:"tx_count"`
	BlockSize  int              `json:"block_size"`
	Seed       int64            `json:"seed"`
	Results    []OrderingResult `json:"results,omitempty"`
	Runs       []ClusterRun     `json:"runs,omitempty"`
}

// ClusterRun is one run of one BENCHMARK.json workload. Run names the plan,
// seed and side of a comparison ("trace0 seed1 parent"); RateTPS is the
// open-loop rate, 0 for the closed loop, as in the benchmark's phase lines.
// Metrics is keyed by the metric names in BENCHMARK.json; a figure only
// `sharpnet load` prints carries a "load." prefix.
type ClusterRun struct {
	System    string             `json:"system"`
	Workload  string             `json:"workload"`
	Run       string             `json:"run"`
	RateTPS   int                `json:"rate_tps"`
	Offered   int                `json:"offered"`
	Committed int                `json:"committed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// BenchFile is the trajectory file layout.
type BenchFile struct {
	Comment string        `json:"comment"`
	Records []BenchRecord `json:"records"`
}

// AppendBenchRecord loads path (if it exists), appends rec, and writes the
// file back, preserving earlier records — the append-only perf history.
func AppendBenchRecord(path string, rec BenchRecord) error {
	file := BenchFile{
		Comment: "Benchmark trajectory, append-only; see docs/perf.md for the two record kinds.",
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("bench: corrupt trajectory file %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Records = append(file.Records, rec)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// NewBenchRecord assembles a record for the current machine and options.
func NewBenchRecord(label string, o Options, results []OrderingResult) BenchRecord {
	return BenchRecord{
		Kind:       "ordering",
		Label:      label,
		Captured:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TxCount:    orderingTxCount(o),
		BlockSize:  Params.Defaults.BlockSize,
		Seed:       o.Seed,
		Results:    results,
	}
}
