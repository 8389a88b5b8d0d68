package fabricsharp

// One benchmark per table/figure of the paper's evaluation. Each runs the
// corresponding experiment sweep on the deterministic simulator (quick
// windows) and reports the headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. cmd/benchall prints the full tables.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fabricsharp/internal/bench"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/fabric"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/network"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/workload"
)

var benchOpts = bench.Options{Quick: true, Seed: 42}

func reportTable(b *testing.B, tables ...*bench.Table) {
	b.Helper()
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure1(benchOpts))
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Table1())
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure10(benchOpts)...)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure11(benchOpts)...)
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure12(benchOpts)...)
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure13(benchOpts)...)
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure14(benchOpts)...)
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, Figure15(benchOpts))
	}
}

func BenchmarkReorderCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, ReorderCost())
	}
}

// BenchmarkSingleRunPerSystem measures one default-configuration run per
// system and reports effective throughput — the quickest way to see the
// paper's headline ordering (Fabric# > Fabric++ > Fabric > Focc-l > Focc-s
// at the default contention).
func BenchmarkSingleRunPerSystem(b *testing.B) {
	for _, system := range sched.Systems() {
		system := system
		b.Run(string(system), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(42))
				w, err := workload.NewModifiedSmallbank(rng, 0, 0.1, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := network.Run(network.Config{
					System:      system,
					Workload:    w,
					Seed:        42,
					Duration:    5 * sim.Second,
					RequestRate: 700,
					BlockSize:   100,
				})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.EffectiveTPS
			}
			b.ReportMetric(eff, "effective-tps")
		})
	}
}

// BenchmarkOrdering drives each scheduler's bare OnArrival/OnBlockFormation
// hot path over the two canonical SmallBank stream shapes (contended and
// conflict-free), reporting allocations — the perf-trajectory benchmark whose
// results BENCH.json records under kind "ordering" (see docs/perf.md).
func BenchmarkOrdering(b *testing.B) {
	const blockSize = 100
	for _, system := range sched.Systems() {
		for _, shape := range bench.OrderingShapes() {
			system, shape := system, shape
			b.Run(fmt.Sprintf("%s/%s", system, shape.Name), func(b *testing.B) {
				txs := shape.Stream(b.N, 42)
				sc, err := sched.New(system, sched.Options{CompactEvery: shape.CompactEvery})
				if err != nil {
					b.Fatal(err)
				}
				height := uint64(0)
				b.ReportAllocs()
				b.ResetTimer()
				for _, tx := range txs {
					tx.SnapshotBlock = height
					if _, err := sc.OnArrival(tx); err != nil {
						b.Fatal(err)
					}
					if sc.PendingCount() >= blockSize {
						fr, err := sc.OnBlockFormation()
						if err != nil {
							b.Fatal(err)
						}
						if len(fr.Ordered) > 0 {
							height = fr.Block
						}
					}
				}
			})
		}
	}
}

// BenchmarkSharpArrival micro-benchmarks the core manager's arrival path
// (Algorithm 2 + Algorithm 4) under a contended stream.
func BenchmarkSharpArrival(b *testing.B) {
	s := sched.NewSharp(sched.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := mkBenchTx(fmt.Sprintf("t%d", i), i)
		if _, err := s.OnArrival(tx); err != nil {
			b.Fatal(err)
		}
		if s.PendingCount() >= 100 {
			if _, err := s.OnBlockFormation(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCommitThroughput compares the retired sequential commit path
// (validation.ValidateAndCommit, the reference implementation) against the
// commit pipeline's parallel validator on conflict-free blocks — the
// workload where intra-block parallelism should pay. Each transaction
// carries a real ed25519 endorsement, so the benchmark measures what a peer
// actually spends per block: signature checks, the MVCC rule, and the
// batched state apply.
func BenchmarkCommitThroughput(b *testing.B) {
	msp := identity.NewService()
	endorser, err := msp.Enroll("peer0", identity.RolePeer)
	if err != nil {
		b.Fatal(err)
	}
	policy := identity.SignedBy("peer0")

	mkBlockTxs := func(txCount int) []*protocol.Transaction {
		txs := make([]*protocol.Transaction, txCount)
		for i := range txs {
			tx := &protocol.Transaction{
				ID: protocol.TxID(fmt.Sprintf("t%d", i)),
				RWSet: protocol.RWSet{
					// A read of a never-written key (fresh forever) plus a
					// write to the transaction's own key: conflict-free.
					Reads:  []protocol.ReadItem{{Key: fmt.Sprintf("ro%d", i)}},
					Writes: []protocol.WriteItem{{Key: fmt.Sprintf("acct%d", i), Value: []byte("balance")}},
				},
			}
			tx.Endorsements = []protocol.Endorsement{{
				EndorserID: endorser.ID,
				Signature:  endorser.Sign(tx.Digest()),
			}}
			txs[i] = tx
		}
		return txs
	}

	// Both arms would report bogus throughput if a regression started
	// aborting transactions (less work per block); fail instead.
	allValid := func(b *testing.B, codes []protocol.ValidationCode) {
		b.Helper()
		for i, c := range codes {
			if c != protocol.Valid {
				b.Fatalf("conflict-free tx %d validated as %v", i, c)
			}
		}
	}

	for _, txCount := range []int{8, 64, 256} {
		txs := mkBlockTxs(txCount)
		blockFor := func(num uint64) *ledger.Block {
			return &ledger.Block{Header: ledger.Header{Number: num}, Transactions: txs}
		}
		b.Run(fmt.Sprintf("sequential/%dtx", txCount), func(b *testing.B) {
			db, err := statedb.New(statedb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			opts := validation.Options{MVCC: true, MSP: msp, Policy: policy}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codes, err := validation.ValidateAndCommit(db, blockFor(uint64(i+1)), opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					allValid(b, codes)
				}
			}
			b.ReportMetric(float64(txCount)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
		b.Run(fmt.Sprintf("parallel/%dtx", txCount), func(b *testing.B) {
			db, err := statedb.New(statedb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			opts := commit.Options{Options: validation.Options{MVCC: true, MSP: msp, Policy: policy}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk := blockFor(uint64(i + 1))
				res := commit.ValidateBlock(db, blk, opts)
				if err := db.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					allValid(b, res.Codes)
				}
			}
			b.ReportMetric(float64(txCount)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}

// BenchmarkPeerValidateBlock prices a peer's validation of one
// 100-transaction block by the share of its transactions the peer endorsed
// itself: those it recognises from its identity.SignedRing, the rest cost an
// ed25519 verification each. 0 % is what the orderer and a peer that
// endorsed nothing pay, 50 % is a peer of the benchmark's two-peer cluster
// (clients alternate), 100 % a single-peer cluster. MVCC is off, as under
// fabric# on the solo workloads.
func BenchmarkPeerValidateBlock(b *testing.B) {
	const blockTxs = 100
	msp, policy := identity.DevMSP("peer0", "peer1")
	self := identity.NewSignedRing(identity.Deterministic("peer0", identity.RolePeer))
	other := identity.Deterministic("peer1", identity.RolePeer)
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := commit.Options{Options: validation.Options{MSP: msp, Policy: policy, Self: self}, Workers: 1}
	for _, own := range []int{0, 50, 100} {
		txs := make([]*protocol.Transaction, blockTxs)
		for i := range txs {
			txs[i] = mkBenchTx(fmt.Sprintf("own%d-t%d", own, i), i)
			e := protocol.Endorsement{EndorserID: "peer1"}
			if i < own {
				e.EndorserID, e.Signature = "peer0", self.Sign(txs[i].Digest())
			} else {
				e.Signature = other.Sign(txs[i].Digest())
			}
			txs[i].Endorsements = []protocol.Endorsement{e}
		}
		blk := &ledger.Block{Header: ledger.Header{Number: 1}, Transactions: txs}
		b.Run(fmt.Sprintf("self%d", own), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := commit.ValidateBlock(db, blk, opts); len(res.Writes) != blockTxs {
					b.Fatalf("%d of %d transactions validated", len(res.Writes), blockTxs)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perTx := float64(b.N * blockTxs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTx, "ns/tx")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perTx, "allocs/tx")
		})
	}
}

// BenchmarkPeerDurableCommit prices what BenchmarkPeerValidateBlock leaves
// out: landing a 100-transaction block on a -data-dir peer. Endorsement
// checks and MVCC are off, so a block costs the linkage check, the verdict
// pass and the commit point itself — encode the block record, one kvstore
// batch (record, 100 state writes, height), publish. B/block is what the
// peer's directory holds per block afterwards.
func BenchmarkPeerDurableCommit(b *testing.B) {
	const blockTxs = 100
	dir := b.TempDir()
	peer, err := fabric.NewPeer(fabric.PeerConfig{
		ID:      identity.Deterministic("peer0", identity.RolePeer),
		DataDir: dir,
		OnError: func(err error) { b.Error(err) },
	})
	if err != nil {
		b.Fatal(err)
	}
	sealer, err := ledger.NewChain(nil)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*ledger.Block, b.N)
	for n := range blocks {
		txs := make([]*protocol.Transaction, blockTxs)
		for i := range txs {
			txs[i] = mkBenchTx(fmt.Sprintf("b%d-t%d", n, i), n*blockTxs+i)
			txs[i].Endorsements = []protocol.Endorsement{{EndorserID: "peer1", Signature: make([]byte, 64)}}
		}
		if blocks[n], err = sealer.Seal(txs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for _, blk := range blocks {
		peer.Committer().Deliver(blk)
	}
	peer.Close() // drains the committer
	b.StopTimer()
	if got := peer.State().Height(); got != uint64(b.N) {
		b.Fatalf("committed %d of %d blocks", got, b.N)
	}
	var size int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if info, ierr := d.Info(); err == nil && ierr == nil && !d.IsDir() {
			size += info.Size()
		}
		return nil
	})
	b.ReportMetric(float64(size)/float64(b.N), "B/block")
}

// BenchmarkValidationMVCC micro-benchmarks the validation phase.
func BenchmarkValidationMVCC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, err := workload.NewModifiedSmallbank(rng, 0, 0.1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := network.Run(network.Config{
		System: sched.SystemFabric, Workload: w, Seed: 1,
		Duration: 2 * sim.Second, RequestRate: 400, BlockSize: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := network.VerifySerializability(res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrajectoryFile holds BENCH.json to its two schemas: it decodes with no
// unknown field (so benchall's append rewrites every record intact), each
// record fills exactly the half its kind names, and cluster metrics use the
// names BENCHMARK.json declares.
func TestTrajectoryFile(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		known[m.Name] = true
	}

	raw, err = os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var file bench.BenchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if len(file.Records) == 0 {
		t.Fatal("BENCH.json holds no records")
	}
	for _, rec := range file.Records {
		switch rec.Kind {
		case "ordering":
			if len(rec.Results) == 0 || len(rec.Runs) != 0 {
				t.Errorf("%s: an ordering record holds results and no runs", rec.Label)
			}
		case "cluster":
			if len(rec.Runs) == 0 || len(rec.Results) != 0 {
				t.Errorf("%s: a cluster record holds runs and no results", rec.Label)
			}
			for _, run := range rec.Runs {
				if len(run.Metrics) == 0 {
					t.Errorf("%s %s %s: no metrics", rec.Label, run.Workload, run.Run)
				}
				for name := range run.Metrics {
					if !known[name] && !strings.HasPrefix(name, "load.") {
						t.Errorf("%s %s %s: metric %q is not declared in BENCHMARK.json", rec.Label, run.Workload, run.Run, name)
					}
				}
			}
		default:
			t.Errorf("%s: unknown record kind %q", rec.Label, rec.Kind)
		}
	}

	// The ordering gate: the host-independent columns are a pure function of
	// system × shape × seed, so the newest ordering record must reproduce
	// the newest earlier one over the same stream on every run both hold (a
	// record of another stream in between, such as the solo-hot formation
	// rows, does not switch the gate off). A scheduler change that moves one
	// of them is a behaviour change, not a measurement.
	var ordering []bench.BenchRecord
	for _, rec := range file.Records {
		if rec.Kind == "ordering" {
			ordering = append(ordering, rec)
		}
	}
	if len(ordering) < 2 {
		return
	}
	last := ordering[len(ordering)-1]
	var prev *bench.BenchRecord
	for i := len(ordering) - 2; i >= 0 && prev == nil; i-- {
		if r := ordering[i]; r.Seed == last.Seed && r.TxCount == last.TxCount && r.BlockSize == last.BlockSize {
			prev = &ordering[i]
		}
	}
	if prev == nil {
		return // no earlier record of this stream: nothing is comparable
	}
	type run struct {
		system, shape string
		rescue        bool
	}
	type counts struct{ admitted, committed, valid, rescued int }
	before := map[run]counts{}
	for _, r := range prev.Results {
		before[run{r.System, r.Shape, r.Rescue}] = counts{r.Admitted, r.Committed, r.Valid, r.Rescued}
	}
	for _, r := range last.Results {
		want, ok := before[run{r.System, r.Shape, r.Rescue}]
		if got := (counts{r.Admitted, r.Committed, r.Valid, r.Rescued}); ok && got != want {
			t.Errorf("%s vs %s, %s/%s rescue=%v seed %d: admitted/committed/valid/rescued %+v, was %+v",
				last.Label, prev.Label, r.System, r.Shape, r.Rescue, last.Seed, got, want)
		}
	}
}
