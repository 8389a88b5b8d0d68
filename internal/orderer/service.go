// Package orderer is the ordering role of Section 2.1, split the way
// consensus.RaftCore and transport.RaftService split Raft. Core (core.go) is
// the ordering state machine — dedup → scheduler → cut → shadow verdicts →
// rescue → seal → commit feedback — with no goroutine, clock or channel.
// Service (this file) is its real-time driver: it folds Core.Step over a
// consensus stream, proposes time-to-cut markers from a timer, and hands the
// sealed blocks to its Deliver function;
// internal/network drives the same Core in virtual time. Neither knows about
// peers, clients or sockets: node.Orderer is this Service plus its block
// streams and result store.
//
// Replication is the consensus stream's job: N Services on one
// consensus.Service — which is what a Raft ordering cluster is — seal
// byte-identical chains, because everything a Core seals is a pure function
// of the stream (docs/determinism.md).
package orderer

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
)

// Options are the ordering tunables every deployment shares.
type Options struct {
	// System selects the ordering-phase concurrency control
	// (default sched.SystemSharp).
	System sched.System
	// BlockSize cuts a block at this many pending transactions
	// (default 100).
	BlockSize int
	// BlockTimeout is the cut timer's period (default 500ms): a batch that
	// does not reach BlockSize is cut by the time-to-cut marker the timer
	// proposes BlockTimeout after the batch's first admission — or, when the
	// batch before it was cut by such a marker, BlockTimeout after that
	// marker's proposal. Timed blocks are therefore BlockTimeout apart
	// however long a cut takes, not BlockTimeout plus the cut.
	BlockTimeout time.Duration
	// MaxSpan is Sharp's pruning horizon (default 10).
	MaxSpan uint64
	// DedupHorizon bounds the duplicate-suppression memory: a TxID first
	// seen while block B was being assembled is forgotten once block
	// B+DedupHorizon seals (default DefaultDedupHorizon). Eviction runs at
	// cut time — a stream-determined position — so the dedup decision stays
	// identical on every replica; the horizon trades replay-protection depth
	// for bounded memory under sustained traffic.
	DedupHorizon uint64
	// Rescue enables post-order speculative re-execution: conflict-aborted
	// transactions re-run after the block's valid transactions at cut time
	// and the rescued write sets commit under the Rescued verdict; it must
	// match the peers' setting (the rescue digest is byte-asserted). Under a
	// scheduler that leaves the stale-read check to validation those are the
	// block's MVCC casualties; under one that skips it (fabric#, focc-s) they
	// are the arrivals the scheduler rejected for a dependency reason
	// (protocol.Deferrable), which ride the block's tail instead of aborting
	// at arrival (docs/commit-pipeline.md, "The deferred tail").
	Rescue bool
	// Genesis, when non-nil, builds the block-0 base seeded into the
	// orderer's shadow state (at workload.GenesisVersion) — it must be the
	// base the peers install, or shadow MVCC verdicts would diverge from peer
	// validation. NewCore calls it once; a Core or Service keeps no reference
	// to it once built.
	Genesis func() (*statedb.Base, error)
	// HashCommitment makes the orderer honour the Section 3.5 two-phase
	// submission: clients sequence a transaction's digest first and disclose
	// the payload after, and disclosures are processed in commitment order,
	// which blinds an order-choosing adversary to transaction contents.
	HashCommitment bool
}

// DefaultDedupHorizon is the default Options.DedupHorizon: deep enough that
// a duplicate would have to arrive over a thousand blocks after the
// original to slip through, shallow enough that the dedup map stays bounded
// under sustained million-transaction traffic.
const DefaultDedupHorizon = 1024

// withDefaults fills unset fields with the paper's setup.
func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = sched.SystemSharp
	}
	if o.BlockSize == 0 {
		o.BlockSize = 100
	}
	if o.BlockTimeout == 0 {
		o.BlockTimeout = 500 * time.Millisecond
	}
	if o.MaxSpan == 0 {
		o.MaxSpan = 10
	}
	if o.DedupHorizon == 0 {
		o.DedupHorizon = DefaultDedupHorizon
	}
	return o
}

// Config is what a Service is assembled from: its Core's configuration plus
// the real-time plumbing around it.
type Config struct {
	CoreConfig
	// Ordering is the consensus stream the Core consumes. The Service takes
	// ownership: Close closes it.
	Ordering consensus.Service
	// Deliver, when set, receives the sealed blocks, verdicts embedded, in
	// chain order from the Service's goroutine. It may block to exert
	// backpressure; a returned error is fatal to the service.
	Deliver func(*ledger.Block) error
	// OnAbort, when set, observes every transaction resolved before it
	// reaches a block: duplicates, early aborts, broken disclosures and
	// formation drops. Called from the Service's goroutine; must be fast
	// and thread-safe.
	OnAbort func(id protocol.TxID, code protocol.ValidationCode)
	// Tracer, when set, records the order and seal stage of every
	// transaction processed, and the genesis's build and seed as a
	// StageGenesis span — write-only telemetry (see internal/trace). Nil
	// disables recording at zero cost.
	Tracer *trace.Tracer
}

// Service is a running ordering service: one Core, driven in real time.
type Service struct {
	cfg  Config
	core *Core
	done chan struct{}
	wg   sync.WaitGroup
	stop sync.Once

	// The tracer's readings at the start of the cut in progress, at its
	// last stage boundary and at the start of its shadow's fold, 0 when it
	// has none (run's goroutine only).
	cutStart, cutMark, foldStart int64

	// The first failure is recorded under errMu; submitters and the run
	// loop observe it and stop. A poisoned block must not crash the process.
	errMu    sync.Mutex
	fatalErr error
}

// New builds the Core without consuming the stream yet, so the caller can
// finish building what its deliveries and callbacks reach; Start begins
// ordering. There is one way to a chain, restart included: fold the stream
// from its first entry.
func New(cfg Config) (*Service, error) {
	cfg.Options = cfg.Options.withDefaults()
	start := cfg.Tracer.Now()
	core, err := NewCore(cfg.CoreConfig)
	if err != nil {
		return nil, err
	}
	if cfg.Genesis != nil {
		// The Core's build is the genesis's build and the shadow's seed,
		// beside which the scheduler's and the empty chain's are nothing.
		cfg.Tracer.RecordSpan(0, trace.StageGenesis, start)
	}
	cfg.Genesis = nil // seeded into the Core's shadow; not kept
	return &Service{cfg: cfg, core: core, done: make(chan struct{})}, nil
}

// Start begins consuming the consensus stream. The run goroutine, and the
// cut's fan-outs it starts, carry the profile label goroutine=orderer.run.
func (s *Service) Start() {
	s.wg.Add(1)
	go pprof.Do(context.Background(), pprof.Labels("goroutine", "orderer.run"), func(context.Context) { s.run() })
}

// run folds Core.Step over the stream. The Core never touches peer state:
// delivery is a channel send or a wake-up, so stream consumption stays
// pipelined with peer commits and the only way a step blocks is
// backpressure from a delivery.
//
// The cut timer sets the cadence: an admission arms it when idle, and each
// firing over a pending batch proposes the marker and re-arms it. A marker's
// cut leaves it running, so the next batch is cut BlockTimeout after the last
// proposal — the cut's own time counts against the period, not on top of it.
// A size cut stops it. armed holds while it runs, and whenever a batch waits.
//
// Whenever the stream has nothing queued, run spends the idle time on
// Core.Precheck, so a cut verifies only the endorsements that arrived since.
// Like the timer, this moves work and never a decision.
func (s *Service) run() {
	defer s.wg.Done()
	stream, cancel := s.cfg.Ordering.Subscribe()
	defer cancel()
	timer := time.NewTimer(s.cfg.BlockTimeout)
	defer timer.Stop()
	timer.Stop()
	armed := false

	for {
		select {
		case <-s.done:
			return
		case <-timer.C:
			armed = false
			if s.core.Pending() > 0 {
				// Do not cut locally: post a time-to-cut marker through
				// consensus so every replica cuts at the same stream
				// position (deterministic block boundaries). The submit is
				// best-effort — on a Raft follower it fails with ErrNotLeader
				// by design (the leader's Service proposes the marker) — so
				// re-arm and keep proposing until the cut lands. Without the
				// retry a Service that fired as a follower and later won an
				// election would sit on pending transactions forever.
				_ = s.cfg.Ordering.Submit(consensus.Envelope{SubmittedBy: "orderer", CutBlock: s.core.NextBlock()})
				timer.Reset(s.cfg.BlockTimeout)
				armed = true
			}
		case seq, ok := <-stream:
			if !ok {
				// Consensus closed, or failed. A cut here would seal a
				// block that is not a function of the stream.
				if err := s.cfg.Ordering.Err(); err != nil {
					s.fail(err)
				}
				return
			}
			assembling := s.core.NextBlock()
			if err := s.core.Step(seq.Env, s); err != nil {
				s.fail(err)
				return
			}
			if s.Err() != nil {
				return // a delivery failed: stop extending a chain nobody will commit
			}
			marker := seq.Env.Tx == nil && seq.Env.Commitment == ""
			if s.core.NextBlock() != assembling && !marker {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				armed = false
			}
			if !armed && s.core.Pending() > 0 {
				timer.Reset(s.cfg.BlockTimeout)
				armed = true
			}
			if len(stream) == 0 {
				s.core.Precheck()
			}
		}
	}
}

// Admitted implements Events with the order stage's telemetry; a deferral's
// stamp carries the scheduler's arrival code as its detail (trace.Event).
func (s *Service) Admitted(id protocol.TxID, code protocol.ValidationCode) {
	s.cfg.Tracer.Record(string(id), trace.StageOrder, uint64(code))
}

// Aborted implements Events.
func (s *Service) Aborted(id protocol.TxID, code protocol.ValidationCode) {
	if s.cfg.OnAbort != nil {
		s.cfg.OnAbort(id, code)
	}
}

// CutStage implements Events: it stamps the boundary and records the stage
// that just ended on the ring, keyed by the block. A cut or a fold begins
// at its stamp.
func (s *Service) CutStage(num uint64, stage trace.Stage) {
	switch stage {
	case trace.StageCut:
		s.cutStart = s.cfg.Tracer.Now()
		s.cutMark = s.cutStart
	case trace.StageFold:
		s.foldStart = s.cfg.Tracer.Now()
	default:
		s.cutMark = s.cfg.Tracer.RecordSpan(num, stage, s.cutMark)
	}
}

// Sealed implements Events: it records the fold the cut made, if any, and
// the whole cut, and hands the block to Deliver. Ordering never waits for
// validation.
func (s *Service) Sealed(blk *ledger.Block) {
	if s.foldStart != 0 {
		s.cfg.Tracer.RecordSpan(blk.Header.Number, trace.StageFold, s.foldStart)
		s.foldStart = 0
	}
	s.cfg.Tracer.RecordSpan(blk.Header.Number, trace.StageCut, s.cutStart)
	for _, tx := range blk.Transactions {
		s.cfg.Tracer.Record(string(tx.ID), trace.StageSeal, blk.Header.Number)
	}
	if s.cfg.Deliver == nil {
		return
	}
	if err := s.cfg.Deliver(blk); err != nil {
		s.fail(fmt.Errorf("orderer: block %d delivery: %w", blk.Header.Number, err))
	}
}

// Submit feeds an envelope into the consensus stream. The caller is
// responsible for having precomputed the transaction's key caches.
func (s *Service) Submit(env consensus.Envelope) error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("orderer: service failed: %w", err)
	}
	return s.cfg.Ordering.Submit(env)
}

// Close stops the run loop and closes the consensus service; it returns once
// the goroutine has exited. Idempotent.
func (s *Service) Close() {
	s.stop.Do(func() {
		close(s.done)
		s.cfg.Ordering.Close()
	})
	s.wg.Wait()
}

// Chain exposes the sealed chain, whose blocks are the ones delivered.
func (s *Service) Chain() *ledger.Chain { return s.core.Chain() }

// fail records the service's first fatal error. The process stays alive:
// submitters get the error and the run loop stops consuming.
func (s *Service) fail(err error) {
	s.errMu.Lock()
	if s.fatalErr == nil {
		s.fatalErr = err
	}
	s.errMu.Unlock()
}

// Err returns the first fatal error, nil while healthy.
func (s *Service) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.fatalErr
}
