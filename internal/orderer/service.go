// Package orderer is the ordering role of Section 2.1 as one service: it
// subscribes replicated orderer replicas to a consensus stream, runs each
// through dedup → scheduler → cut → shadow verdicts → rescue → seal, and
// hands the lead replica's sealed blocks (verdicts embedded) to the attached
// transport.Delivery consumers. It knows nothing about peers, clients or
// sockets: the in-process fabric.Network and the TCP node.Orderer are both
// this Service plus their own delivery and result plumbing.
//
// Everything a replica seals is a pure function of the consensus stream, so
// the whole package is bound by the determinism contract
// (docs/determinism.md).
package orderer

import (
	"fmt"
	"sync"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/workload"
)

// Options are the ordering tunables every deployment shares.
type Options struct {
	// System selects the ordering-phase concurrency control
	// (default sched.SystemSharp).
	System sched.System
	// Orderers is the number of replicated orderers (default 2). All run
	// the same scheduler on the same consensus stream; the first one
	// delivers blocks.
	Orderers int
	// BlockSize cuts a block at this many pending transactions
	// (default 100).
	BlockSize int
	// BlockTimeout cuts a partial block (default 500ms).
	BlockTimeout time.Duration
	// MaxSpan is Sharp's pruning horizon (default 10).
	MaxSpan uint64
	// CompactEvery enables the schedulers' deterministic intern-table epoch
	// compaction: every CompactEvery sealed blocks, each scheduler rebuilds
	// its key-interning state at cut time keeping only keys referenced by
	// retained (above-horizon) entries — bounding orderer memory under
	// unbounded key spaces. Cuts happen at identical consensus-stream
	// positions on every replica, so the rebuilt tables (and all KeyID
	// remappings) are bit-identical across orderers, and a restart through
	// Resume continues the same epoch schedule (the trigger is a pure
	// function of sealed block numbers). 0 (default) keeps the tables
	// append-only.
	CompactEvery uint64
	// DedupHorizon bounds the duplicate-suppression memory: a TxID first
	// seen while block B was being assembled is forgotten once block
	// B+DedupHorizon seals (default DefaultDedupHorizon). Eviction runs at
	// cut time — a stream-determined position — so the dedup decision stays
	// identical on every replica; the horizon trades replay-protection depth
	// for bounded memory under sustained traffic.
	DedupHorizon uint64
	// Rescue enables post-order speculative re-execution: MVCC-aborted
	// transactions re-run against the block's committed prefix at cut time
	// and the rescued write sets commit under the Rescued verdict; it must
	// match the peers' setting (the rescue digest is byte-asserted). A no-op
	// for systems whose ordering phase already guarantees serializability.
	// Replicas running with rescue keep a value-tracking shadow, trading
	// memory for the re-execution capability.
	Rescue bool
	// Genesis, when non-empty, is the block-0 write set seeded into every
	// replica's shadow state at workload.GenesisVersion — it must be the set
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
	if o.Orderers == 0 {
		o.Orderers = 2
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

// Config is what a Service is assembled from.
type Config struct {
	Options
	// MSP and Policy verify endorsements in the shadow validation pass —
	// the same pair the peers validate with.
	MSP    *identity.Service
	Policy identity.Policy
	// Registry resolves contracts for the rescue re-execution.
	Registry *chaincode.Registry
	// Ordering is the consensus stream the replicas consume. The Service
	// takes ownership: Close closes it.
	Ordering consensus.Service
	// HashCommitment makes the replicas honour the Section 3.5 two-phase
	// submission: disclosures are processed in commitment order.
	HashCommitment bool
	// Deliveries receive the lead replica's sealed blocks, verdicts
	// embedded, in chain order from the lead's goroutine. A returned error
	// is fatal to the service.
	Deliveries []transport.Delivery
	// OnAbort, when set, observes every transaction the lead replica
	// resolves before it reaches a block: duplicates, early aborts, broken
	// disclosures and formation drops. Called from the lead's goroutine;
	// must be fast and thread-safe.
	OnAbort func(id protocol.TxID, code protocol.ValidationCode)
	// Tracer, when set, records the order and seal stage of every
	// transaction the lead replica processes — write-only telemetry (see
	// internal/trace). Nil disables recording at zero cost.
	Tracer *trace.Tracer
}

// Service is a running ordering service.
type Service struct {
	cfg      Config
	replicas []*replica
	done     chan struct{}
	wg       sync.WaitGroup
	stop     sync.Once

	// The first failure is recorded and fatalCh closed, atomically under
	// errMu; submitters and replicas observe it and stop. A poisoned block
	// must not crash the process.
	errMu    sync.Mutex
	fatalErr error
	fatalCh  chan struct{}
}

// New builds the replicas — scheduler, empty chain and genesis-seeded shadow
// each — without consuming the stream yet: Resume may adopt a stored chain
// first, Start begins ordering.
func New(cfg Config) (*Service, error) {
	cfg.Options = cfg.Options.withDefaults()
	s := &Service{cfg: cfg, done: make(chan struct{}), fatalCh: make(chan struct{})}
	for i := 0; i < cfg.Orderers; i++ {
		scheduler, err := sched.New(cfg.System, sched.Options{MaxSpan: cfg.MaxSpan, CompactEvery: cfg.CompactEvery})
		if err != nil {
			return nil, err
		}
		chain, err := ledger.NewChain(nil)
		if err != nil {
			return nil, err
		}
		shadow := validation.NewShadowState()
		if cfg.Rescue {
			// Rescue re-executes chaincode here, which needs the committed
			// values, not just versions.
			shadow = validation.NewValueShadowState()
		}
		// The shadow must agree with the peers' seeded states key for key:
		// an endorsement over a genesis key carries workload.GenesisVersion
		// in its read set, and the shadow validator has to see that same
		// version or its sealed verdict would diverge from peer validation.
		for _, w := range cfg.Genesis {
			if !w.Delete {
				shadow.Seed(w.Key, w.Value, workload.GenesisVersion())
			}
		}
		r := &replica{
			svc:       s,
			name:      fmt.Sprintf("orderer%d", i),
			scheduler: scheduler,
			chain:     chain,
			lead:      i == 0,
			shadow:    shadow,
			rescue:    cfg.Rescue && scheduler.NeedsMVCCValidation(),
			vopts: validation.Options{
				MVCC:   scheduler.NeedsMVCCValidation(),
				MSP:    cfg.MSP,
				Policy: cfg.Policy,
			},
			seen:        map[protocol.TxID]bool{},
			seenByBlock: map[uint64][]protocol.TxID{},
			seenFloor:   1,
		}
		if cfg.HashCommitment {
			r.broker = NewCommitmentBroker()
		}
		s.replicas = append(s.replicas, r)
	}
	return s, nil
}

// Resume adopts a stored chain on every replica before Start: each block is
// appended, the shadow version state rebuilt from the stored verdicts, and
// the schedulers fast-forwarded past the stored height. Restart semantics
// are clean-shutdown: nothing was pending across the restart, so new
// transactions (whose snapshots are at or above the stored height) cannot
// conflict with pre-restart history and the schedulers may start from an
// empty dependency graph — but the shadow state MUST resume exactly where
// the peers' state databases do, or the first post-restart shadow
// validation would diverge from peer validation.
func (s *Service) Resume(stored *ledger.Chain) error {
	var walkErr error
	stored.ForEach(func(b *ledger.Block) bool {
		if len(b.Validation) != len(b.Transactions) {
			walkErr = fmt.Errorf("orderer: stored block %d missing validation metadata", b.Header.Number)
			return false
		}
		for _, r := range s.replicas {
			blk := *b
			if walkErr = r.chain.Append(&blk); walkErr != nil {
				return false
			}
			// Rescued verdicts carry no write sets in the block: re-derive
			// them by re-running the deterministic rescue phase against the
			// shadow's replayed state, asserting the sealed digest.
			if b.RescueDigest != nil && !r.shadow.TracksValues() {
				walkErr = fmt.Errorf("orderer: stored block %d carries rescued verdicts; the network must boot with Rescue enabled to replay it", b.Header.Number)
				return false
			}
			out, err := commit.ReplayRescue(r.shadow, b, s.cfg.Registry)
			if err != nil {
				walkErr = fmt.Errorf("orderer: %w", err)
				return false
			}
			r.shadow.ApplyRescued(b.Header.Number, b.Transactions, b.Validation, out.Writes)
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	height, _ := stored.Height()
	for _, r := range s.replicas {
		// Dedup buckets resume past the stored chain too, so the first
		// post-restart eviction does not walk empty pre-restart blocks.
		r.seenFloor = height + 1
		if err := r.scheduler.FastForward(height); err != nil {
			return err
		}
	}
	return nil
}

// Start begins consuming the consensus stream on every replica.
func (s *Service) Start() {
	for _, r := range s.replicas {
		s.wg.Add(1)
		go r.run()
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

// Close stops the replicas and closes the consensus service; it returns once
// every replica goroutine has exited. Idempotent.
func (s *Service) Close() {
	s.stop.Do(func() {
		close(s.done)
		s.cfg.Ordering.Close()
	})
	s.wg.Wait()
}

// Replicas returns the number of orderer replicas.
func (s *Service) Replicas() int { return len(s.replicas) }

// Chain exposes replica i's sealed chain; replica 0 is the lead, whose
// blocks are the ones delivered.
func (s *Service) Chain(i int) *ledger.Chain { return s.replicas[i].chain }

// NeedsMVCCValidation reports whether the configured system leaves the
// stale-read check to the validation phase — the switch every peer must
// share with the replicas' shadow validator.
func (s *Service) NeedsMVCCValidation() bool { return s.replicas[0].vopts.MVCC }

// Fail records the service's first fatal error and unblocks everyone
// waiting on it. The process stays alive: submitters get the error and the
// replicas stop consuming. Peers sharing the service's fate (a committer
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

// dispatch hands a sealed block to every delivery.
func (s *Service) dispatch(blk *ledger.Block) {
	for _, d := range s.cfg.Deliveries {
		if err := d.Deliver(blk); err != nil {
			s.Fail(fmt.Errorf("orderer: block %d delivery: %w", blk.Header.Number, err))
			return
		}
	}
}
