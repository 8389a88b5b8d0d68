package network

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/core"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/workload"
)

// Result aggregates one run's measurements.
type Result struct {
	Config Config

	// Counts.
	Submitted   uint64
	InLedger    uint64 // transactions that consumed ledger space (raw)
	Committed   uint64 // valid transactions (effective)
	Blocks      uint64
	EarlyAborts metrics.AbortTally // before the ledger (simulation, arrival, formation)
	LateAborts  metrics.AbortTally // in-ledger validation failures

	// Rates (per second of submission window).
	RawTPS       float64
	EffectiveTPS float64

	// End-to-end latency of committed transactions, seconds.
	Latency metrics.Histogram

	// RescuedAntiRW counts committed transactions whose readset was stale
	// against the committed state at commit time — transactions vanilla
	// Fabric's MVCC check would have aborted, recovered by the ordering-
	// phase serializability guarantee (the "antiRW" share of Figure 15).
	// Only meaningful for systems that skip MVCC validation.
	RescuedAntiRW uint64

	// Scheduler-side measurements.
	SchedulerTiming sched.Timing
	SharpStats      *core.Stats // non-nil for the sharp system

	// Artifacts for verification.
	Chain   *ledger.Chain
	State   *statedb.DB
	Genesis *statedb.DB
}

// AbortRate returns 1 - committed/submitted.
func (r *Result) AbortRate() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return 1 - float64(r.Committed)/float64(r.Submitted)
}

// pipeline is the wired-up network: the virtual-time driver of one
// orderer.Core, between modelled endorsers and a modelled validating peer.
type pipeline struct {
	cfg      Config
	eng      *sim.Engine
	rng      *rand.Rand
	registry *chaincode.Registry
	state    *statedb.DB
	core     *orderer.Core

	endorsers *sim.Station
	orderer   *sim.Station
	validator *sim.Station
	stateLock *sim.RWLock // vanilla Fabric's simulation/commit lock

	submittedAt map[protocol.TxID]sim.Time
	cutGen      uint64 // invalidates stale batch timeouts
	txSeq       uint64

	// Windowed counters: only commits that land inside the submission
	// window count toward throughput, so the post-window drain (which lets
	// waiters resolve) cannot credit an overloaded system with work it
	// deferred past the measurement.
	windowInLedger  uint64
	windowCommitted uint64

	res *Result
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Workload == nil && cfg.Scenario != "" {
		sc, ok := scenario.Get(cfg.Scenario)
		if !ok {
			return nil, fmt.Errorf("network: unknown scenario %q (have %v)", cfg.Scenario, scenario.Names())
		}
		gen, err := sc.Generator(rng, cfg.ScenarioParams)
		if err != nil {
			return nil, fmt.Errorf("network: scenario %q: %w", cfg.Scenario, err)
		}
		cfg.Workload = gen
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("network: config needs a workload")
	}
	state, err := statedb.New(statedb.Options{})
	if err != nil {
		return nil, err
	}
	if err := cfg.Workload.Seed(state); err != nil {
		return nil, fmt.Errorf("network: seeding workload: %w", err)
	}
	genesis := state.Clone()
	// The Core's shadow starts from the genesis its peer installs.
	var seeded []protocol.WriteItem
	state.ForEachLatest(func(key string, vv statedb.VersionedValue) bool {
		seeded = append(seeded, protocol.WriteItem{Key: key, Value: vv.Value})
		return true
	})
	registry := chaincode.NewRegistry(cfg.Contracts...)
	core, err := orderer.NewCore(orderer.CoreConfig{Options: orderer.Options{
		System:    cfg.System,
		BlockSize: cfg.BlockSize,
		MaxSpan:   cfg.MaxSpan,
		Rescue:    cfg.Rescue,
		Genesis:   seeded,
	}, Registry: registry})
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	p := &pipeline{
		cfg:         cfg,
		eng:         eng,
		rng:         rng,
		registry:    registry,
		state:       state,
		core:        core,
		endorsers:   sim.NewStation(eng, cfg.Timing.EndorserSlots),
		orderer:     sim.NewStation(eng, 1),
		validator:   sim.NewStation(eng, 1),
		stateLock:   sim.NewRWLock(),
		submittedAt: map[protocol.TxID]sim.Time{},
		res: &Result{
			Config:      cfg,
			EarlyAborts: metrics.AbortTally{},
			LateAborts:  metrics.AbortTally{},
			Chain:       core.Chain(),
			State:       state,
			Genesis:     genesis,
		},
	}

	// Generate the arrival process up front (deterministic given the seed).
	t := sim.Time(0)
	for {
		t += p.expInterval()
		if t >= cfg.Duration {
			break
		}
		at := t
		eng.At(at, func() { p.submit(at) })
	}

	// Drain long enough for timeouts, validation queues and lock waits.
	drain := cfg.Duration + 20*sim.Second
	eng.Run(drain)

	p.finalize()
	return p.res, nil
}

// expInterval draws an exponential inter-arrival time for the Poisson
// submission process.
func (p *pipeline) expInterval() sim.Time {
	u := p.rng.Float64()
	for u == 0 {
		u = p.rng.Float64()
	}
	sec := -math.Log(u) / p.cfg.RequestRate
	d := sim.Time(sec * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// submit is a client submitting one operation at virtual time `at`.
func (p *pipeline) submit(at sim.Time) {
	op := p.cfg.Workload.Next()
	p.txSeq++
	id := protocol.TxID(fmt.Sprintf("tx-%08d", p.txSeq))
	p.res.Submitted++
	p.eng.StartProcess(func(proc *sim.Proc) { p.endorse(proc, id, op, at) })
}

// desReader resolves contract reads on virtual time.
type desReader struct {
	p        *sim.Proc
	state    *statedb.DB
	snap     uint64
	latest   bool // Fabric++: read the live state at each read instant
	interval sim.Time
}

func (r *desReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	if r.interval > 0 {
		r.p.Sleep(r.interval)
	}
	if r.latest {
		vv, ok := r.state.Get(key)
		if !ok {
			return nil, seqno.Seq{}, false, nil
		}
		return vv.Value, vv.Version, true, nil
	}
	vv, ok, err := r.state.GetAt(key, r.snap)
	if err != nil || !ok {
		return nil, seqno.Seq{}, false, err
	}
	return vv.Value, vv.Version, true, nil
}

// ReadRange implements chaincode.RangeReader against the read snapshot (or
// the live state in Fabric++'s latest mode).
func (r *desReader) ReadRange(start, end string) ([]string, error) {
	if r.latest {
		return r.state.KeysInRange(start, end, r.state.Height()), nil
	}
	return r.state.KeysInRange(start, end, r.snap), nil
}

// endorse runs the execution phase for one transaction.
func (p *pipeline) endorse(proc *sim.Proc, id protocol.TxID, op workload.Op, submitted sim.Time) {
	contract, ok := p.registry.Get(op.Contract)
	if !ok {
		p.res.EarlyAborts.Inc(protocol.EndorsementFailure)
		return
	}
	vanilla := p.cfg.System == sched.SystemFabric
	if vanilla {
		// Vanilla Fabric holds a read lock on the state database for the
		// whole simulation; commits take the write side (Section 2.1).
		proc.Block(p.stateLock.AcquireRead)
	}
	snap := p.state.Height()
	reader := &desReader{
		p:        proc,
		state:    p.state,
		snap:     snap,
		latest:   p.cfg.System == sched.SystemFabricPP,
		interval: p.cfg.ReadInterval,
	}
	// CPU occupancy of the simulation itself.
	proc.Block(func(wake func()) { p.endorsers.Submit(p.cfg.Timing.ExecBase, wake) })
	rwset, simErr := chaincode.Simulate(contract, op.Function, op.Args, reader)
	if vanilla {
		p.stateLock.ReleaseRead()
	}
	if simErr != nil {
		p.res.EarlyAborts.Inc(protocol.EndorsementFailure)
		return
	}
	tx := &protocol.Transaction{
		ID:            id,
		ClientID:      "client",
		Contract:      op.Contract,
		Function:      op.Function,
		Args:          op.Args,
		SnapshotBlock: snap,
		RWSet:         rwset,
	}
	// Fill the key caches before the transaction is shared with the
	// scheduler and validator stages.
	tx.RWSet.Precompute()
	if p.cfg.System == sched.SystemFabricPP && sched.ReadsAcrossBlocks(tx) {
		// Fabric++'s simulation-phase early abort.
		p.res.EarlyAborts.Inc(protocol.AbortSimulation)
		return
	}
	// Client-side delay, then broadcast through consensus.
	if d := p.cfg.ClientDelay + p.cfg.Timing.ConsensusLatency; d > 0 {
		proc.Sleep(d)
	}
	p.submittedAt[id] = submitted
	p.ordererArrive(tx)
}

// ordererArrive runs the (replicated, deterministic) orderer's arrival
// processing.
func (p *pipeline) ordererArrive(tx *protocol.Transaction) {
	p.orderer.Submit(arrivalCost(p.cfg.System), func() {
		code, joined, err := p.core.Arrive(tx)
		if err != nil {
			// Arrival errors indicate a pipeline bug; surface loudly.
			panic(fmt.Sprintf("network: %v", err))
		}
		if !joined {
			p.res.EarlyAborts.Inc(code)
			delete(p.submittedAt, tx.ID)
			return
		}
		n := p.core.Pending()
		if n >= p.cfg.BlockSize {
			p.cutBlock()
			return
		}
		if n == 1 {
			// First transaction since the last cut: arm the batch timeout.
			gen := p.cutGen
			p.eng.After(p.cfg.BlockTimeout, func() {
				if p.cutGen == gen && p.core.Pending() > 0 {
					p.cutBlock()
				}
			})
		}
	})
}

// cutBlock runs the formation step on the orderer (occupying it for the
// system's reordering cost — Fabric++'s expensive reorder stalls arrivals
// exactly as the paper describes). The block leaves the Core sealed, its
// verdicts embedded and already fed back, as at a real orderer's cut.
func (p *pipeline) cutBlock() {
	p.cutGen++
	n := p.core.Pending()
	p.orderer.Submit(formationCost(p.cfg.System, n), func() {
		blk, dropped, err := p.core.Cut(nil)
		if err != nil {
			panic(fmt.Sprintf("network: %v", err))
		}
		for _, d := range dropped {
			p.res.EarlyAborts.Inc(d.Code)
			delete(p.submittedAt, d.Tx.ID)
		}
		if blk == nil {
			return
		}
		p.eng.After(p.cfg.Timing.DeliveryLatency, func() { p.deliver(blk) })
	})
}

// deliver hands a block to the validating peer.
func (p *pipeline) deliver(blk *ledger.Block) {
	service := p.cfg.Timing.ValidatePerBlock + sim.Time(len(blk.Transactions))*p.cfg.Timing.ValidatePerTx
	p.validator.Submit(service, func() {
		p.eng.StartProcess(func(proc *sim.Proc) { p.commit(proc, blk) })
	})
}

// commit applies a validated block to the ledger state. Under vanilla
// Fabric it first takes the write lock, waiting out every in-flight
// simulation — the contention that collapses Figure 14's vanilla curve. The
// codes and rescue digest must equal the ones the orderer sealed.
func (p *pipeline) commit(proc *sim.Proc, blk *ledger.Block) {
	vanilla := p.cfg.System == sched.SystemFabric
	if vanilla {
		proc.Block(p.stateLock.AcquireWrite)
	}
	proc.Sleep(p.cfg.Timing.CommitTime)
	mvcc := p.core.Scheduler().NeedsMVCCValidation()
	if !mvcc {
		// Count the transactions only the ordering-phase guarantee saves
		// (stale against committed state yet serializable): Figure 15's
		// "antiRW" share.
		for _, tx := range blk.Transactions {
			if validation.Stale(p.state, tx) {
				p.res.RescuedAntiRW++
			}
		}
	}
	// The validator every peer runs, on one worker so the station stays a
	// single virtual-time process.
	res := commit.ValidateBlock(p.state, blk, commit.Options{
		Options: validation.Options{MVCC: mvcc}, Workers: 1, Rescue: p.cfg.Rescue, Registry: p.registry,
	})
	if !bytes.Equal(res.Rescue.Digest, blk.RescueDigest) {
		panic(fmt.Sprintf("network: commit: block %d: rescue digest diverges from the sealed one", blk.Header.Number))
	}
	codes := res.Codes
	if err := p.state.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
		panic(fmt.Sprintf("network: commit: %v", err))
	}
	if vanilla {
		p.stateLock.ReleaseWrite()
	}
	if err := commit.AssertVerdictsEqual(blk.Header.Number, blk.Validation, codes); err != nil {
		panic(fmt.Sprintf("network: commit: %v", err))
	}

	now := p.eng.Now()
	inWindow := now <= p.cfg.Duration
	for i, tx := range blk.Transactions {
		p.res.InLedger++
		if inWindow {
			p.windowInLedger++
		}
		if codes[i].Committed() {
			p.res.Committed++
			if inWindow {
				p.windowCommitted++
			}
			if t0, ok := p.submittedAt[tx.ID]; ok {
				p.res.Latency.Add((now - t0).Seconds())
			}
		} else {
			p.res.LateAborts.Inc(codes[i])
		}
		delete(p.submittedAt, tx.ID)
	}
	p.res.Blocks++

	// Bounded history: prune snapshots beyond the max_span horizon.
	if h := p.state.Height(); h > p.cfg.MaxSpan+1 {
		p.state.PruneSnapshots(h - p.cfg.MaxSpan - 1)
	}
}

// finalize computes the derived rates.
func (p *pipeline) finalize() {
	durationSec := p.cfg.Duration.Seconds()
	p.res.RawTPS = float64(p.windowInLedger) / durationSec
	p.res.EffectiveTPS = float64(p.windowCommitted) / durationSec
	p.res.SchedulerTiming = p.core.Scheduler().Timing()
	if s, ok := p.core.Scheduler().(*sched.Sharp); ok {
		stats := s.Manager().Stats()
		p.res.SharpStats = &stats
	}
}
