// Package fabricsharp is a from-scratch Go reproduction of "A Transactional
// Perspective on Execute-order-validate Blockchains" (Ruan et al., SIGMOD
// 2020): FabricSharp's fine-grained, reordering-based concurrency control
// for EOV blockchains, together with every substrate it runs on — a
// permissioned blockchain (peers, orderers, Raft consensus, ed25519
// membership, chaincode runtime, MVCC state, hash-chained ledger), four
// baseline concurrency controls (Fabric, Fabric++, Focc-s, Focc-l), the
// Smallbank workloads, and a deterministic network simulator that
// regenerates every figure of the paper's evaluation.
//
// Two entry points:
//
//   - Library mode: NewNetwork boots a real blockchain network in this
//     process — the orderer and peers of a process-per-node cluster, joined
//     by in-memory connections; clients submit transactions through the
//     full execute-order-validate pipeline.
//
//     net, _ := fabricsharp.NewNetwork(fabricsharp.NetworkOptions{
//     System: fabricsharp.SystemSharp,
//     })
//     defer net.Close()
//     client, _ := net.NewClient("alice")
//     res, _ := client.Submit("kv", "put", "greeting", "hello")
//
//   - Experiment mode: RunExperiment executes a configuration on the
//     discrete-event simulator and returns throughput/latency/abort
//     measurements; the Figure*/Table* functions regenerate the paper's
//     exhibits.
package fabricsharp

import (
	"context"
	"time"

	"fabricsharp/internal/bench"
	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/core"
	"fabricsharp/internal/network"
	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/workload"
)

// The five systems of the evaluation (Section 5.1).
const (
	// SystemFabric is vanilla Hyperledger Fabric: FIFO ordering and
	// validation-phase MVCC aborts.
	SystemFabric = sched.SystemFabric
	// SystemFabricPP is Fabric++: simulation-phase cross-block aborts plus
	// in-block reordering.
	SystemFabricPP = sched.SystemFabricPP
	// SystemFoccS is the serializable-OCC certifier of Cahill et al.
	// adapted to the ordering phase.
	SystemFoccS = sched.SystemFoccS
	// SystemFoccL is Ding et al.'s batch reordering.
	SystemFoccL = sched.SystemFoccL
	// SystemSharp is the paper's contribution: fine-grained reordering with
	// pre-ordering aborts of unreorderable transactions (Theorem 2).
	SystemSharp = sched.SystemSharp
)

// System identifies a concurrency-control scheme.
type System = sched.System

// Systems lists every scheme.
func Systems() []System { return sched.Systems() }

// ---------------------------------------------------------------------------
// Library mode
// ---------------------------------------------------------------------------

// NetworkOptions configures an in-process blockchain network.
type NetworkOptions = node.NetworkOptions

// Network is a running in-process blockchain network.
type Network = node.Network

// Client submits transactions to a Network.
type Client = node.NetworkClient

// TxResult is a transaction's final fate.
type TxResult = node.TxResult

// NewNetwork boots an in-process blockchain network.
func NewNetwork(opts NetworkOptions) (*Network, error) { return node.NewNetwork(opts) }

// Contract is a deployable smart contract; Stub is the API it programs
// against. Custom contracts implement Contract and are deployed via
// NetworkOptions.Contracts.
type (
	Contract = chaincode.Contract
	Stub     = chaincode.Stub
)

// ValidationCode classifies a transaction's fate (commit or abort reason).
type ValidationCode = protocol.ValidationCode

// Valid marks a committed transaction.
const Valid = protocol.Valid

// ---------------------------------------------------------------------------
// Experiment mode
// ---------------------------------------------------------------------------

// ExperimentConfig describes one simulated run (system, workload, rates,
// block size, delays).
type ExperimentConfig = network.Config

// ExperimentResult carries a run's measurements.
type ExperimentResult = network.Result

// Time is virtual time; Second / Millisecond are its units.
type Time = sim.Time

// Virtual-time units for ExperimentConfig fields.
const (
	Second      = sim.Second
	Millisecond = sim.Millisecond
)

// RunExperiment executes one configuration on the simulator.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return network.Run(cfg) }

// VerifySerializability checks a run end to end: the committed schedule's
// exact precedence graph must be acyclic and serial re-execution must
// reproduce the final state (Theorems 1 and 2, observably).
func VerifySerializability(res *ExperimentResult) error { return network.VerifySerializability(res) }

// WorkloadGenerator produces the operations clients submit.
type WorkloadGenerator = workload.Generator

// NoOpWorkload returns Figure 1's no-data-access workload.
func NoOpWorkload() WorkloadGenerator { return workload.NoOp{} }

// Workload constructors for the paper's benchmark drivers (Section 5.2).
var (
	// NewSingleModWorkload: single read-modify-writes over n accounts with
	// zipfian skew theta (Figure 1).
	NewSingleModWorkload = workload.NewSingleMod
	// NewModifiedSmallbankWorkload: the Fabric++ evaluation workload —
	// 4 reads + 4 writes over the account pool (0 = the paper's 10k) with
	// read/write hot ratios (Figures 10-14). Errors on parameters that
	// cannot produce the required distinct accounts.
	NewModifiedSmallbankWorkload = workload.NewModifiedSmallbank
	// NewMixedSmallbankWorkload: 50% queries / 30% single-account /
	// 20% two-account with zipfian skew (Figure 15). Errors on pools too
	// small for distinct account pairs.
	NewMixedSmallbankWorkload = workload.NewMixedSmallbank
)

// Scenario bundles a workload's contracts, generator, genesis state, and
// post-run invariant behind one registered name; the registry drives the
// simulator (ExperimentConfig.Scenario), the in-process network, and every
// command-line front end from the same definitions.
type Scenario = scenario.Scenario

// ScenarioParams tunes a named scenario (pool size, skew, hot ratios).
type ScenarioParams = scenario.Params

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string { return scenario.Names() }

// GetScenario resolves a registered scenario by name.
func GetScenario(name string) (Scenario, bool) { return scenario.Get(name) }

// ExperimentTable is a rendered paper exhibit.
type ExperimentTable = bench.Table

// BenchOptions tunes the exhibit regeneration (Quick shortens windows).
type BenchOptions = bench.Options

// The paper's exhibits, regenerated. See EXPERIMENTS.md for paper-vs-
// measured numbers.
var (
	Figure1  = bench.Figure1
	Table1   = bench.Table1
	Figure10 = bench.Figure10
	Figure11 = bench.Figure11
	Figure12 = bench.Figure12
	Figure13 = bench.Figure13
	Figure14 = bench.Figure14
	Figure15 = bench.Figure15
	// ReorderCost measures the real reordering implementations
	// (Section 5.3's cost-scaling numbers).
	ReorderCost = bench.ReorderCost
	// AllExperiments runs everything in paper order.
	AllExperiments = bench.All
)

// SharpManagerStats exposes the core concurrency-control statistics type
// (hops, spans, phase timings) reported by ExperimentResult.SharpStats.
type SharpManagerStats = core.Stats

// ---------------------------------------------------------------------------
// Cluster mode: open-loop load generation and stage tracing over the wire
// ---------------------------------------------------------------------------

// LoadOptions configures an open-loop load run against a process-per-node
// cluster (cmd/fabricnode): a rate controller paces submissions at
// TargetTPS regardless of completion latency. LoadReport carries the run's
// throughput and scheduled-instant latency quantiles.
type (
	LoadOptions = node.LoadOptions
	LoadReport  = node.LoadReport
)

// RunLoad drives an open-loop load run; cancel ctx to stop early.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	return node.RunLoad(ctx, opts)
}

// Stage tracing: every cluster node keeps an always-on ring of per-
// transaction stage timestamps (submit → order → seal → deliver → validate
// → commit). TraceDump is one node's drained ring; TraceTimeline is one
// transaction's cross-node timeline; TraceSummary holds per-stage latency
// quantiles over a merged timeline set.
type (
	TraceStage    = trace.Stage
	TraceEvent    = trace.Event
	TraceDump     = trace.Dump
	TraceTimeline = trace.Timeline
	TraceSummary  = trace.Summary
)

// TraceAt drains one node's stage-tracing ring over the wire.
func TraceAt(addr string, timeout time.Duration) (TraceDump, error) {
	return node.TraceAt(addr, timeout)
}

// FetchTimelines drains every named node's ring and joins the events by
// transaction ID into end-to-end timelines (plus the raw per-node dumps).
func FetchTimelines(addrs []string, timeout time.Duration) ([]TraceTimeline, []TraceDump, error) {
	return node.FetchTimelines(addrs, timeout)
}

// SummarizeTimelines computes stage-transition and submit→commit latency
// quantiles from merged timelines.
func SummarizeTimelines(timelines []TraceTimeline) TraceSummary {
	return trace.Summarize(timelines)
}
