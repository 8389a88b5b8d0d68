// Package layers is the in-process layer table of the benchmark: fixed
// iteration counts, seeded inputs, public functions only. Each loop times
// one thing a transaction crosses on its way through the cluster and
// reports the named figure plus <name>_allocs, so a cost the cluster run
// shows can be set against the layers that add up to it.
package layers

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fabricsharp/internal/bench"
	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

// Def names one figure of the table.
type Def struct {
	Name string
	Unit string
	// hasAllocs is set where the loop's mallocs per operation are reported
	// beside the figure as <Name>_allocs.
	hasAllocs bool
}

// defs lists the loops' figures in the order Run fills them.
var defs = []Def{
	{"wire.encode_tx_ns", "ns", true},
	{"wire.decode_tx_ns", "ns", true},
	{"wire.encode_block_ns_per_tx", "ns", true},
	{"wire.decode_block_ns_per_tx", "ns", true},
	{"wire.tx_bytes", "bytes", false},
	{"transport.call_rtt_us", "us", true},
	{"consensus.raft_submit_commit_us", "us", true},
	{"consensus.raft_submit_tps_c64", "tx/s", false},
	{"sched.arrival_ns_per_tx.sharp", "ns", true},
	{"sched.arrival_ns_per_tx.fabric", "ns", true},
	{"sched.formation_us_per_block.sharp", "us", false},
	{"validation.verdicts_ns_per_tx", "ns", true},
	{"validation.precheck_endorse_us_per_tx", "us", true},
	{"reexec.run_us_per_tx_contended", "us", true},
	{"commit.validate_apply_us_per_tx", "us", true},
	{"statedb.apply_block_ns_per_tx", "ns", true},
	{"ledger.seal_us_per_block", "us", true},
	{"ledger.append_us_per_block", "us", true},
	{"kvstore.apply_batch_us_nosync", "us", true},
	{"kvstore.apply_batch_us_sync", "us", true},
	{"chaincode.simulate_us_per_tx", "us", true},
	{"identity.sign_us", "us", true},
	{"identity.verify_us", "us", true},
}

// Metrics lists every figure Run reports, <name>_allocs included.
func Metrics() []Def {
	var out []Def
	for _, d := range defs {
		out = append(out, Def{Name: d.Name, Unit: d.Unit})
		if d.hasAllocs {
			out = append(out, Def{Name: d.Name + "_allocs", Unit: "count"})
		}
	}
	return out
}

const (
	blockTxs = 100
	accounts = 10000
	peerName = "peer0"
)

// contendedShape is bench's hot-account SmallBank stream.
func contendedShape() (bench.OrderingShape, error) {
	for _, s := range bench.OrderingShapes() {
		if s.Name == "contended" {
			return s, nil
		}
	}
	return bench.OrderingShape{}, fmt.Errorf("layers: bench has no contended ordering shape")
}

// table collects results under the declared names.
type table map[string]float64

// timed runs fn n times and returns nanoseconds and mallocs per call.
func timed(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// put records a per-operation figure: ns scaled into the figure's unit (div
// = 1 for ns, 1000 for us) and spread over per operations a call covers.
func (t table) put(name string, ns, allocs, div float64, per int) {
	t[name] = ns / div / float64(per)
	t[name+"_allocs"] = allocs / float64(per)
}

// dbReader lets chaincode simulate against the latest committed state.
type dbReader struct{ db *statedb.DB }

func (r dbReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	vv, ok := r.db.Get(key)
	if !ok || vv.Deleted {
		return nil, seqno.Seq{}, false, nil
	}
	return vv.Value, vv.Version, true, nil
}

// fixture is the shared input: a seeded state, endorsed msmallbank
// transactions the way a peer produces them, and blocks of them.
type fixture struct {
	msp      *identity.Service
	endorser *identity.Identity
	policy   identity.Policy
	contract chaincode.Contract
	db       *statedb.DB
	ops      []workload.Op
	txs      []*protocol.Transaction // conflict-free, endorsed
}

func newFixture(seed int64) (*fixture, error) {
	sc, ok := scenario.Get("msmallbank")
	if !ok {
		return nil, fmt.Errorf("layers: msmallbank scenario not registered")
	}
	params := scenario.Params{Accounts: accounts}
	gen, err := sc.Generator(rand.New(rand.NewSource(seed)), params)
	if err != nil {
		return nil, err
	}
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		return nil, err
	}
	if err := sc.Seed(db, params); err != nil {
		return nil, err
	}
	f := &fixture{
		msp:      identity.NewService(),
		endorser: identity.Deterministic(peerName, identity.RolePeer),
		policy:   identity.AnyPeerOf(peerName),
		contract: sc.Contracts()[0],
		db:       db,
	}
	if err := f.msp.Register(peerName, identity.RolePeer, f.endorser.Public()); err != nil {
		return nil, err
	}
	// Keep only transactions that share no key with an earlier one, so a
	// block of them validates as all Valid whatever the order.
	used := map[string]bool{}
	for len(f.txs) < 4*blockTxs {
		op := gen.Next()
		tx, err := f.endorse(fmt.Sprintf("layer-%06d", len(f.txs)), op)
		if err != nil {
			return nil, err
		}
		keys := append(append([]string(nil), tx.RWSet.ReadKeys()...), tx.RWSet.WriteKeys()...)
		clash := false
		for _, k := range keys {
			clash = clash || used[k]
		}
		if clash {
			continue
		}
		for _, k := range keys {
			used[k] = true
		}
		f.ops = append(f.ops, op)
		f.txs = append(f.txs, tx)
	}
	return f, nil
}

// endorse mirrors node.Peer's proposal handler: simulate, then sign.
func (f *fixture) endorse(id string, op workload.Op) (*protocol.Transaction, error) {
	rwset, err := chaincode.Simulate(f.contract, op.Function, op.Args, dbReader{f.db})
	if err != nil {
		return nil, err
	}
	tx := &protocol.Transaction{
		ID: protocol.TxID(id), ClientID: "layers",
		Contract: op.Contract, Function: op.Function, Args: op.Args,
		SnapshotBlock: f.db.Height(), RWSet: rwset,
	}
	tx.RWSet.Precompute()
	tx.Endorsements = []protocol.Endorsement{{EndorserID: f.endorser.ID, Signature: f.endorser.Sign(tx.Digest())}}
	return tx, nil
}

// Run fills the whole table. dir receives the kvstore loops' files and must
// exist; seed fixes every generated input.
func Run(seed int64, dir string) (map[string]float64, error) {
	f, err := newFixture(seed)
	if err != nil {
		return nil, err
	}
	t := table{}
	for _, step := range []func(*fixture, table, int64, string) error{
		wireCodec, callRTT, raftSubmit, schedulers, verdicts, rescue, commitPath, kvBatches, endorsement,
	} {
		if err := step(f, t, seed, dir); err != nil {
			return nil, err
		}
	}
	for _, d := range Metrics() {
		if _, ok := t[d.Name]; !ok {
			return nil, fmt.Errorf("layers: %s was not measured", d.Name)
		}
	}
	return t, nil
}

func wireCodec(f *fixture, t table, _ int64, _ string) error {
	encoded := make([][]byte, len(f.txs))
	for i, tx := range f.txs {
		encoded[i] = wire.EncodeTransaction(tx)
	}
	t["wire.tx_bytes"] = float64(len(encoded[0]))
	var sink int
	ns, allocs := timed(20000, func(i int) { sink += len(wire.EncodeTransaction(f.txs[i%len(f.txs)])) })
	t.put("wire.encode_tx_ns", ns, allocs, 1, 1)
	var decodeErr error
	ns, allocs = timed(20000, func(i int) {
		if _, err := wire.DecodeTransaction(encoded[i%len(encoded)]); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	t.put("wire.decode_tx_ns", ns, allocs, 1, 1)

	chain, err := ledger.NewChain(nil)
	if err != nil {
		return err
	}
	txs := f.txs[:blockTxs]
	blk, err := chain.Seal(txs, make([]protocol.ValidationCode, len(txs)))
	if err != nil {
		return err
	}
	raw := wire.EncodeBlock(blk)
	ns, allocs = timed(300, func(int) { sink += len(wire.EncodeBlock(blk)) })
	t.put("wire.encode_block_ns_per_tx", ns, allocs, 1, blockTxs)
	ns, allocs = timed(300, func(int) {
		if _, err := wire.DecodeBlock(raw); err != nil {
			decodeErr = err
		}
	})
	t.put("wire.decode_block_ns_per_tx", ns, allocs, 1, blockTxs)
	_ = sink
	return decodeErr
}

// callRTT times Conn.Call against an echo handler over loopback, 1 KiB each
// way: the floor under every submit, poll and proposal.
func callRTT(_ *fixture, t table, _ int64, _ string) error {
	srv, err := transport.Listen("127.0.0.1:0", func(c *transport.Conn) {
		for {
			typ, payload, err := c.Recv()
			if err != nil || c.Send(typ, payload) != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	payload := make([]byte, 1024)
	var callErr error
	ns, allocs := timed(3000, func(int) {
		if _, _, err := conn.Call(wire.MsgResultPoll, payload); err != nil {
			callErr = err
		}
	})
	t.put("transport.call_rtt_us", ns, allocs, 1000, 1)
	return callErr
}

// raftSubmit boots three RaftService members in this process over loopback
// sockets and times Submit (append -> quorum commit) on the leader, one at a
// time and then from 64 submitters at once.
func raftSubmit(f *fixture, t table, seed int64, _ string) error {
	addrs := make([]string, 3)
	listeners := make([]net.Listener, 3)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	members := make([]*transport.RaftService, 0, 3)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for i, addr := range addrs {
		m, err := transport.StartRaft(transport.RaftConfig{ID: addr, Cluster: addrs, Seed: seed + int64(i) + 1})
		if err != nil {
			return err
		}
		members = append(members, m)
	}
	var leader *transport.RaftService
	for deadline := time.Now().Add(10 * time.Second); leader == nil; time.Sleep(5 * time.Millisecond) {
		for _, m := range members {
			if m.IsLeader() {
				leader = m
			}
		}
		if leader == nil && time.Now().After(deadline) {
			return fmt.Errorf("layers: no raft leader within 10s")
		}
	}
	env := func(i int) consensus.Envelope {
		return consensus.Envelope{Tx: f.txs[i%len(f.txs)], SubmittedBy: "layers"}
	}
	var submitErr error
	ns, allocs := timed(40, func(i int) {
		if err := leader.Submit(env(i)); err != nil {
			submitErr = err
		}
	})
	if submitErr != nil {
		return submitErr
	}
	t.put("consensus.raft_submit_commit_us", ns, allocs, 1000, 1)

	const submitters, each = 64, 10
	errs := make([]error, submitters)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := leader.Submit(env(g*each + i)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	t["consensus.raft_submit_tps_c64"] = submitters * each / time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// schedulers drives the bare ordering hot path (arrival + formation with
// shadow-verdict feedback) over the contended SmallBank stream.
func schedulers(_ *fixture, t table, seed int64, _ string) error {
	shape, err := contendedShape()
	if err != nil {
		return err
	}
	for _, sys := range []struct {
		system sched.System
		suffix string
	}{{sched.SystemSharp, "sharp"}, {sched.SystemFabric, "fabric"}} {
		system, suffix := sys.system, sys.suffix
		res, err := bench.RunOrdering(system, shape, 20000, blockTxs, seed, false)
		if err != nil {
			return err
		}
		t["sched.arrival_ns_per_tx."+suffix] = res.ArrivalUSPerTx * 1000
		t["sched.arrival_ns_per_tx."+suffix+"_allocs"] = res.AllocsPerTx
		if system == sched.SystemSharp {
			t["sched.formation_us_per_block.sharp"] = res.FormationMSPerBlock * 1000
		}
	}
	return nil
}

// verdicts times the two halves of block validation every orderer and peer
// runs: the ed25519 endorsement precheck and the serial MVCC pass.
func verdicts(f *fixture, t table, _ int64, _ string) error {
	txs := f.txs[:blockTxs]
	opts := validation.Options{MVCC: true, MSP: f.msp, Policy: f.policy}
	base := validation.DBVersions(f.db)
	rejected := false
	ns, allocs := timed(10, func(int) {
		for _, failed := range validation.PrecheckEndorsements(txs, opts, 1) {
			rejected = rejected || failed
		}
	})
	if rejected {
		return fmt.Errorf("layers: a fixture endorsement does not verify")
	}
	t.put("validation.precheck_endorse_us_per_tx", ns, allocs, 1000, blockTxs)
	ns, allocs = timed(500, func(i int) {
		validation.ComputeVerdictsPrechecked(base, uint64(i+1), txs, opts, nil)
	})
	t.put("validation.verdicts_ns_per_tx", ns, allocs, 1, blockTxs)
	return nil
}

// rescue times reexec.Run over one block's MVCC casualties: hot-account
// send_payments that all read the same snapshot, so all but the first
// writer of each account go stale and must be re-executed.
func rescue(_ *fixture, t table, seed int64, _ string) error {
	msc, ok := scenario.Get("mixed")
	if !ok {
		return fmt.Errorf("layers: mixed scenario not registered")
	}
	registry := chaincode.NewRegistry(msc.Contracts()...)
	contract, ok := registry.Get("smallbank")
	if !ok {
		return fmt.Errorf("layers: mixed scenario no longer deploys smallbank")
	}
	shape, err := contendedShape()
	if err != nil {
		return err
	}
	txs := shape.Stream(blockTxs, seed)
	shadow := validation.NewValueShadowState()
	for _, tx := range txs {
		for _, id := range tx.Args[:2] {
			shadow.Seed(chaincode.CheckingKey(id), []byte("1000000"), seqno.Commit(0, 1))
		}
	}
	for _, tx := range txs {
		rwset, err := chaincode.Simulate(contract, tx.Function, tx.Args, shadowReader{shadow})
		if err != nil {
			return err
		}
		tx.RWSet = rwset
		tx.RWSet.Precompute()
	}
	codes := validation.ComputeVerdicts(shadow, 1, txs, validation.Options{MVCC: true})
	attempted := 0
	ns, allocs := timed(50, func(int) {
		out := reexec.Run(shadow, 1, txs, codes, reexec.Options{Registry: registry, Workers: 1})
		attempted = out.Attempted
	})
	if attempted == 0 {
		return fmt.Errorf("layers: the contended block produced no MVCC casualty to rescue")
	}
	t.put("reexec.run_us_per_tx_contended", ns, allocs, 1000, attempted)
	return nil
}

type shadowReader struct{ shadow *validation.ShadowState }

func (r shadowReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	v, ver, ok := r.shadow.Read(key)
	return v, ver, ok, nil
}

// commitPath times what a peer does per delivered block (validate, apply)
// and what both sides do to the chain (seal on the orderer, append on the
// peer), all in memory.
func commitPath(f *fixture, t table, _ int64, _ string) error {
	txs := f.txs[:blockTxs]
	codes := make([]protocol.ValidationCode, len(txs))
	opts := commit.Options{Options: validation.Options{MVCC: true, MSP: f.msp, Policy: f.policy}, Workers: 1}
	db := f.db.Clone()
	var applyErr error
	// Later blocks find their reads stale and commit nothing, so every
	// iteration validates against, and applies onto, a fresh clone.
	ns, allocs := timed(10, func(int) {
		fresh := f.db.Clone()
		blk := &ledger.Block{Header: ledger.Header{Number: 1}, Transactions: txs}
		res := commit.ValidateBlock(fresh, blk, opts)
		if err := fresh.ApplyBlock(1, res.Writes); err != nil {
			applyErr = err
		}
		if len(res.Writes) != len(txs) {
			applyErr = fmt.Errorf("layers: %d of %d fixture transactions validated", len(res.Writes), len(txs))
		}
	})
	if applyErr != nil {
		return applyErr
	}
	t.put("commit.validate_apply_us_per_tx", ns, allocs, 1000, blockTxs)

	writes := commit.WritesFor(&ledger.Block{Transactions: txs}, codes)
	ns, allocs = timed(300, func(i int) {
		if err := db.ApplyBlock(uint64(i+1), writes); err != nil {
			applyErr = err
		}
	})
	if applyErr != nil {
		return applyErr
	}
	t.put("statedb.apply_block_ns_per_tx", ns, allocs, 1, blockTxs)

	sealer, err := ledger.NewChain(nil)
	if err != nil {
		return err
	}
	const blocks = 200
	sealed := make([]*ledger.Block, blocks)
	ns, allocs = timed(blocks, func(i int) {
		if sealed[i], err = sealer.Seal(txs, codes); err != nil {
			applyErr = err
		}
	})
	if applyErr != nil {
		return applyErr
	}
	t.put("ledger.seal_us_per_block", ns, allocs, 1000, 1)
	follower, err := ledger.NewChain(nil)
	if err != nil {
		return err
	}
	ns, allocs = timed(blocks, func(i int) {
		if err := follower.Append(sealed[i]); err != nil {
			applyErr = err
		}
	})
	t.put("ledger.append_us_per_block", ns, allocs, 1000, 1)
	return applyErr
}

// kvBatches times kvstore.ApplyBatch with 100 operations, the shape of one
// block's state writes, with and without an fsync per batch.
func kvBatches(_ *fixture, t table, seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed))
	batch := func() []kvstore.BatchOp {
		ops := make([]kvstore.BatchOp, blockTxs)
		for i := range ops {
			ops[i] = kvstore.BatchOp{
				Key:   []byte(fmt.Sprintf("acct:%08d", rng.Intn(1<<20))),
				Value: []byte("100000"),
			}
		}
		return ops
	}
	for _, mode := range []struct {
		name string
		sync bool
		n    int
	}{{"kvstore.apply_batch_us_nosync", false, 300}, {"kvstore.apply_batch_us_sync", true, 40}} {
		db, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(dir, mode.name), SyncWrites: mode.sync})
		if err != nil {
			return err
		}
		batches := make([][]kvstore.BatchOp, mode.n)
		for i := range batches {
			batches[i] = batch()
		}
		var batchErr error
		ns, allocs := timed(mode.n, func(i int) {
			if err := db.ApplyBatch(batches[i]); err != nil {
				batchErr = err
			}
		})
		if err := db.Close(); err != nil {
			return err
		}
		if batchErr != nil {
			return batchErr
		}
		t.put(mode.name, ns, allocs, 1000, 1)
	}
	return nil
}

// endorsement times the execution phase: chaincode simulation against the
// state database, and the ed25519 sign and verify around it.
func endorsement(f *fixture, t table, _ int64, _ string) error {
	var simErr error
	ns, allocs := timed(5000, func(i int) {
		op := f.ops[i%len(f.ops)]
		if _, err := chaincode.Simulate(f.contract, op.Function, op.Args, dbReader{f.db}); err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		return simErr
	}
	t.put("chaincode.simulate_us_per_tx", ns, allocs, 1000, 1)
	digest := f.txs[0].Digest()
	var sig []byte
	ns, allocs = timed(1000, func(int) { sig = f.endorser.Sign(digest) })
	t.put("identity.sign_us", ns, allocs, 1000, 1)
	ns, allocs = timed(1000, func(int) {
		if !f.msp.Verify(peerName, digest, sig) {
			simErr = fmt.Errorf("layers: signature does not verify")
		}
	})
	t.put("identity.verify_us", ns, allocs, 1000, 1)
	return simErr
}
