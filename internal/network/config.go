// Package network models the full execute-order-validate pipeline on the
// discrete-event simulator, as a virtual-time driver of orderer.Core: clients
// submitting at a request rate, endorsing peers running real contract
// simulations against the real state database (with per-read intervals and,
// for vanilla Fabric, the simulation/commit read-write lock), the client
// delay, the consensus latency, an orderer station whose arrival and
// formation jobs call Core.Arrive and Core.Cut (cut on size or timeout), and
// the validation phase committing to state.
//
// Every commit/abort/reorder decision comes from the real implementations in
// internal/{orderer,sched,core,validation,chaincode,statedb,ledger} — the
// ordering state machine is the one a live orderer.Service runs; only service
// times are modelled, calibrated to the constants the paper reports
// (Section 5: ~677 tps Fabric raw peak, ~3114 tps FastFabric raw, Fabric++
// reorder 4.3 ms @ 50 txns to 401 ms @ 500, Focc-l 0.12 ms to 5.19 ms).
package network

import (
	"math"
	"math/rand"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/workload"
)

// Profile selects the hardware/architecture model.
type Profile string

// The two evaluation platforms.
const (
	// ProfileFabric models the four-peer Fabric v1.3 cluster of Section 5.1.
	ProfileFabric Profile = "fabric"
	// ProfileFastFabric models FastFabric's split peers (dedicated
	// endorsers, storage and validator), whose validation pipeline runs
	// ~4.5x faster (Section 5.4).
	ProfileFastFabric Profile = "fastfabric"
)

// TimingModel carries the virtual service times. Zero fields take profile
// defaults.
type TimingModel struct {
	// ExecBase is the CPU cost of one contract simulation (excluding the
	// read intervals, which are latency, not occupancy).
	ExecBase sim.Time
	// EndorserSlots bounds concurrent simulations across the endorsing
	// peers.
	EndorserSlots int
	// ConsensusLatency is the Kafka round-trip.
	ConsensusLatency sim.Time
	// DeliveryLatency is orderer-to-peer block delivery.
	DeliveryLatency sim.Time
	// ValidatePerBlock and ValidatePerTx shape the validation-phase
	// bottleneck: a block costs ValidatePerBlock + n*ValidatePerTx.
	ValidatePerBlock sim.Time
	ValidatePerTx    sim.Time
	// CommitTime is the state/ledger write at the end of validation; under
	// vanilla Fabric it holds the write lock (against all simulations).
	CommitTime sim.Time
}

func (t TimingModel) withProfileDefaults(p Profile) TimingModel {
	def := func(v *sim.Time, d sim.Time) {
		if *v == 0 {
			*v = d
		}
	}
	switch p {
	case ProfileFastFabric:
		def(&t.ExecBase, 300*sim.Microsecond)
		def(&t.ValidatePerBlock, 2*sim.Millisecond)
		def(&t.ValidatePerTx, 300*sim.Microsecond)
		def(&t.CommitTime, 2*sim.Millisecond)
	default:
		def(&t.ExecBase, 1*sim.Millisecond)
		def(&t.ValidatePerBlock, 15*sim.Millisecond)
		def(&t.ValidatePerTx, 1300*sim.Microsecond)
		def(&t.CommitTime, 5*sim.Millisecond)
	}
	def(&t.ConsensusLatency, 10*sim.Millisecond)
	def(&t.DeliveryLatency, 5*sim.Millisecond)
	if t.EndorserSlots == 0 {
		t.EndorserSlots = 2048 // read intervals are waits, not CPU
	}
	return t
}

// formationCost models each system's block-formation (reordering) cost as a
// function of the batch size, calibrated to the reorder latencies the paper
// measured (Section 5.3): Fabric++ enumerates cycles (superlinear: 4.3 ms at
// 50 txns, 401 ms at 500), Focc-l's greedy is light (0.12 ms to 5.19 ms),
// Sharp shifted the heavy lifting to arrival time so formation stays cheap.
func formationCost(system sched.System, n int) sim.Time {
	if n == 0 {
		return 0
	}
	fn := float64(n)
	switch system {
	case sched.SystemFabricPP:
		return sim.Time(1.7 * fn * fn) // µs: 1.7µs·n² → 4.2ms@50, 425ms@500
	case sched.SystemFoccL:
		return sim.Time(0.2 * math.Pow(fn, 1.63)) // µs: 0.12ms@50, 5.0ms@500
	case sched.SystemSharp:
		return sim.Time(100 + 50*fn) // µs: order + ww restoration + persist
	default: // fabric, focc-s: batching only
		return sim.Time(50)
	}
}

// arrivalCost models the orderer's per-transaction processing (Figure 12's
// right panel, in virtual time; the real measured breakdown is reported from
// the core.Manager stats).
func arrivalCost(system sched.System) sim.Time {
	switch system {
	case sched.SystemSharp:
		return 60 * sim.Microsecond // dependency resolution + reachability
	case sched.SystemFoccS:
		return 20 * sim.Microsecond // conflict identification
	default:
		return 5 * sim.Microsecond // enqueue + index
	}
}

// Config describes one experiment run.
type Config struct {
	// System selects the scheduler.
	System sched.System
	// Profile selects the platform model.
	Profile Profile
	// Workload generates the submitted operations. Leave nil and set
	// Scenario to resolve one from the registry instead.
	Workload workload.Generator
	// Scenario, when Workload is nil, names a registered scenario whose
	// generator (built from Rng/Seed and ScenarioParams) drives the run.
	Scenario string
	// ScenarioParams tunes the named Scenario.
	ScenarioParams scenario.Params
	// Contracts overrides the deployed contract set; the default,
	// scenario.AllContracts(), can endorse every registered scenario.
	Contracts []chaincode.Contract
	// Seed drives every random choice the pipeline itself makes.
	Seed int64
	// Rng, when non-nil, is the explicit random stream the pipeline draws
	// from instead of deriving one from Seed. Threading a *rand.Rand in
	// (rather than seeding any process-global source) keeps concurrent
	// harness use reproducible: each Run owns its stream, so parallel CI
	// shards or side-by-side experiments cannot perturb each other. The
	// default derivation rand.New(rand.NewSource(Seed)) is what every
	// historical result used; pass exactly that to reproduce them.
	Rng *rand.Rand
	// Duration is the submission window of virtual time; the run drains
	// in-flight work afterwards. Throughput = committed / Duration.
	Duration sim.Time
	// RequestRate is the client submission rate in tx/s (paper: 700 fixed
	// for the Fabric experiments).
	RequestRate float64
	// BlockSize cuts a block at this many pending transactions.
	BlockSize int
	// BlockTimeout cuts a partial block after this long (Fabric's batch
	// timeout).
	BlockTimeout sim.Time
	// ClientDelay is the client-side delay between endorsement and
	// broadcast to the orderers (Table 2).
	ClientDelay sim.Time
	// ReadInterval is the delay between consecutive reads during
	// simulation (Table 2, "simulates computation-heavy transactions").
	ReadInterval sim.Time
	// MaxSpan is the pruning parameter of Section 4.6 (paper fixes 10).
	MaxSpan uint64
	// Rescue runs the Core and the commit station with post-order
	// re-execution (orderer.Options.Rescue). Off — the paper's plain systems
	// — is what every paper exhibit runs.
	Rescue bool
	// Timing overrides individual service times.
	Timing TimingModel
}

func (c Config) withDefaults() Config {
	if c.Profile == "" {
		c.Profile = ProfileFabric
	}
	if c.Duration == 0 {
		c.Duration = 30 * sim.Second
	}
	if c.RequestRate == 0 {
		c.RequestRate = 700
	}
	if c.BlockSize == 0 {
		c.BlockSize = 100
	}
	if c.BlockTimeout == 0 {
		c.BlockTimeout = 1 * sim.Second
	}
	if c.MaxSpan == 0 {
		c.MaxSpan = 10
	}
	if len(c.Contracts) == 0 {
		c.Contracts = scenario.AllContracts()
	}
	c.Timing = c.Timing.withProfileDefaults(c.Profile)
	return c
}
