// Package orderer is the ordering role of Section 2.1, split the way
// consensus.RaftCore and transport.RaftService split Raft. Core (core.go) is
// the ordering state machine — dedup → scheduler → cut → shadow verdicts →
// rescue → seal → commit feedback — with no goroutine, clock or channel.
// Service (this file) is its real-time driver: it folds Core.Step over a
// consensus stream, proposes time-to-cut markers from a timer, and hands the
// sealed blocks to the attached transport.Delivery consumers;
// internal/network drives the same Core in virtual time. Neither knows about
// peers, clients or sockets: fabric.Network and node.Orderer are both this
// Service plus their own delivery and result plumbing.
//
// Replication is the consensus stream's job: N Services on one
// consensus.Service — which is what a Raft ordering cluster is — seal
// byte-identical chains, because everything a Core seals is a pure function
// of the stream (docs/determinism.md).
package orderer

import (
	"fmt"
	"sync"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
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
	// CompactEvery enables the schedulers' deterministic intern-table epoch
	// compaction: every CompactEvery sealed blocks, each scheduler rebuilds
	// its key-interning state at cut time keeping only keys referenced by
	// retained (above-horizon) entries — bounding orderer memory under
	// unbounded key spaces. Cuts happen at identical consensus-stream
	// positions on every replica, so the rebuilt tables (and all KeyID
	// remappings) are bit-identical across orderers, and a restarted
	// orderer re-folding the stream compacts at the same blocks (the
	// trigger is a pure function of sealed block numbers). 0 (default)
	// keeps the tables append-only.
	CompactEvery uint64
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
	// Genesis, when non-empty, is the block-0 write set seeded into the
	// orderer's shadow state at workload.GenesisVersion — it must be the set
	// the peers install, or shadow MVCC verdicts would diverge from peer
	// validation.
	Genesis []protocol.WriteItem
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
	// Deliveries receive the sealed blocks, verdicts embedded, in chain
	// order from the Service's goroutine. A returned error is fatal to the
	// service.
	Deliveries []transport.Delivery
	// OnAbort, when set, observes every transaction resolved before it
	// reaches a block: duplicates, early aborts, broken disclosures and
	// formation drops. Called from the Service's goroutine; must be fast
	// and thread-safe.
	OnAbort func(id protocol.TxID, code protocol.ValidationCode)
	// Tracer, when set, records the order and seal stage of every
	// transaction processed — write-only telemetry (see internal/trace).
	// Nil disables recording at zero cost.
	Tracer *trace.Tracer
}

// Service is a running ordering service: one Core, driven in real time.
type Service struct {
	cfg  Config
	core *Core
	done chan struct{}
	wg   sync.WaitGroup
	stop sync.Once

	// The tracer's readings at the start of the cut in progress and at its
	// last stage boundary (run's goroutine only).
	cutStart, cutMark int64

	// The first failure is recorded and fatalCh closed, atomically under
	// errMu; submitters and the run loop observe it and stop. A poisoned
	// block must not crash the process.
	errMu    sync.Mutex
	fatalErr error
	fatalCh  chan struct{}
}

// New builds the Core without consuming the stream yet, so the caller can
// finish building what its deliveries and callbacks reach; Start begins
// ordering. There is one way to a chain, restart included: fold the stream
// from its first entry.
func New(cfg Config) (*Service, error) {
	cfg.Options = cfg.Options.withDefaults()
	core, err := NewCore(cfg.CoreConfig)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, core: core, done: make(chan struct{}), fatalCh: make(chan struct{})}, nil
}

// Start begins consuming the consensus stream.
func (s *Service) Start() {
	s.wg.Add(1)
	go s.run()
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
func (s *Service) run() {
	defer s.wg.Done()
	stream, cancel := s.cfg.Ordering.Subscribe()
	defer cancel()
	//sharp:allow seaminject block-cut timer only proposes TTC cut markers into the consensus stream; sealed output remains a pure function of that stream
	timer := time.NewTimer(s.cfg.BlockTimeout)
	defer timer.Stop()
	timer.Stop()
	armed := false

	for {
		// Fatal check first, non-blocking: select picks ready cases at
		// random, so without this a busy consensus stream could keep
		// winning over the closed fatalCh and the orderer would go on
		// driving a faulted scheduler.
		select {
		case <-s.fatalCh:
			return
		default:
		}
		select {
		case <-s.done:
			return
		case <-s.fatalCh:
			// A poisoned block or scheduler fault elsewhere: stop consuming
			// rather than extending a chain nobody will commit.
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
				// Consensus closed: cut the tail so waiters resolve.
				if s.core.Pending() > 0 {
					if err := s.core.cut(s); err != nil {
						s.Fail(err)
					}
				}
				return
			}
			assembling := s.core.NextBlock()
			if err := s.core.Step(seq.Env, s); err != nil {
				s.Fail(err)
				return
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
// that just ended on the ring, keyed by the block.
func (s *Service) CutStage(num uint64, stage trace.Stage) {
	if stage == trace.StageCut {
		s.cutStart = s.cfg.Tracer.Now()
		s.cutMark = s.cutStart
		return
	}
	s.cutMark = s.cfg.Tracer.RecordSpan(num, stage, s.cutMark)
}

// Sealed implements Events: it records the whole cut and hands the block to
// every delivery. Ordering never waits for validation.
func (s *Service) Sealed(blk *ledger.Block) {
	s.cfg.Tracer.RecordSpan(blk.Header.Number, trace.StageCut, s.cutStart)
	for _, tx := range blk.Transactions {
		s.cfg.Tracer.Record(string(tx.ID), trace.StageSeal, blk.Header.Number)
	}
	for _, d := range s.cfg.Deliveries {
		if err := d.Deliver(blk); err != nil {
			s.Fail(fmt.Errorf("orderer: block %d delivery: %w", blk.Header.Number, err))
			return
		}
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

// NeedsMVCCValidation reports whether the configured system leaves the
// stale-read check to the validation phase — the switch every peer must
// share with the Core's shadow validator.
func (s *Service) NeedsMVCCValidation() bool { return s.core.Scheduler().NeedsMVCCValidation() }

// Fail records the service's first fatal error and unblocks everyone
// waiting on it. The process stays alive: submitters get the error and the
// run loop stops consuming. Peers sharing the service's fate (a committer
// that diverged from the sealed verdicts) report through it too.
func (s *Service) Fail(err error) {
	s.errMu.Lock()
	if s.fatalErr == nil {
		s.fatalErr = err
		close(s.fatalCh)
	}
	s.errMu.Unlock()
}

// Err returns the first fatal error, nil while healthy.
func (s *Service) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.fatalErr
}

// Fatal returns a channel closed on the first fatal error.
func (s *Service) Fatal() <-chan struct{} { return s.fatalCh }
