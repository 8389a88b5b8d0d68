package commit

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
)

// queueDepth buffers the delivery channel: deep enough that ordering rarely
// blocks on a slow peer, bounded so a stalled peer exerts backpressure
// instead of hoarding unbounded memory.
const queueDepth = 64

// Config wires a Committer to one peer's state and ledger. The Committer
// deliberately knows nothing about the network that feeds it — completion
// and failure flow out through callbacks, so the package has no dependency
// on the fabric layer.
type Config struct {
	// Name identifies the peer in errors and metrics ("peer0").
	Name string
	// State is the peer's versioned state database.
	State *statedb.DB
	// Chain is the peer's ledger.
	Chain *ledger.Chain
	// Validation configures the parallel validator.
	Validation Options
	// OnCommit, when set, fires after each block commits, from the committer
	// goroutine, with the peer's appended block and its validation codes.
	OnCommit func(blk *ledger.Block, codes []protocol.ValidationCode)
	// OnError, when set, fires once on the first commit failure. The
	// committer then drains further deliveries without applying them, so an
	// upstream orderer never blocks on a poisoned pipeline.
	OnError func(err error)
	// Tracer, when set, records per-transaction stage timestamps (deliver,
	// validate, commit, rescue) — write-only side telemetry outside the
	// deterministic scope (see internal/trace). Nil disables recording.
	Tracer *trace.Tracer
}

// Stats instruments one committer: delivery-queue depth (with high-water
// mark), blocks/transactions committed, validation parallelism, and commit
// latency.
type Stats struct {
	// QueueDepth is the instantaneous delivery-channel backlog.
	QueueDepth metrics.Gauge
	// BlocksCommitted counts blocks fully applied.
	BlocksCommitted metrics.Counter
	// TxsValidated counts transactions validated (any verdict).
	TxsValidated metrics.Counter
	// ValidationGroups counts MVCC conflict groups validated in parallel.
	ValidationGroups metrics.Counter
	// GroupsPerBlock samples the per-block conflict-group count — the
	// available intra-block parallelism.
	GroupsPerBlock metrics.HDRHistogram
	// CommitLatencyNS samples per-block commit latency (validate + apply),
	// in nanoseconds.
	CommitLatencyNS metrics.HDRHistogram
	// RescueAttempts counts conflict-aborted transactions the post-order rescue
	// phase re-executed; RescueCommitted those it flipped to Rescued and
	// RescueStillAborted those it deterministically left aborted.
	RescueAttempts     metrics.Counter
	RescueCommitted    metrics.Counter
	RescueStillAborted metrics.Counter
	// RescueRoundsPerBlock samples the speculative round count of blocks
	// whose rescue phase had candidates — the retry cost of optimistic
	// re-execution.
	RescueRoundsPerBlock metrics.HDRHistogram
}

// Committer is one peer's pipelined validation/commit stage: a goroutine
// consuming sealed blocks from a buffered delivery channel, validating them
// with the parallel validator, and applying the valid writes. It replaces
// the orderer-driven inline commit: ordering proceeds while peers commit.
type Committer struct {
	cfg       Config
	deliver   chan *ledger.Block
	pending   atomic.Int64 // delivered but not yet fully committed
	failed    atomic.Bool
	errOnce   sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
	stats     Stats
}

// New builds a Committer and launches its goroutine.
func New(cfg Config) *Committer {
	c := &Committer{cfg: cfg, deliver: make(chan *ledger.Block, queueDepth)}
	c.wg.Add(1)
	go c.run()
	return c
}

// Deliver hands a sealed block to the committer. It blocks only when the
// delivery buffer is full — backpressure on the ordering stage, never a
// deadlock, because the committer depends on nothing the deliverer holds.
// The block is not mutated; the committer appends its own copy.
func (c *Committer) Deliver(blk *ledger.Block) {
	for _, tx := range blk.Transactions {
		c.cfg.Tracer.Record(string(tx.ID), trace.StageDeliver, blk.Header.Number)
	}
	c.pending.Add(1)
	c.stats.QueueDepth.Add(1)
	c.deliver <- blk
}

// Close stops the committer after it drains every delivered block, and
// waits for the goroutine to exit. It is idempotent; no Deliver may follow
// the first call.
func (c *Committer) Close() {
	c.closeOnce.Do(func() { close(c.deliver) })
	c.wg.Wait()
}

// Idle reports whether every delivered block has been fully processed.
func (c *Committer) Idle() bool { return c.pending.Load() == 0 }

// Failed reports whether the committer hit a fatal commit error.
func (c *Committer) Failed() bool { return c.failed.Load() }

// Stats exposes the committer's instrumentation.
func (c *Committer) Stats() *Stats { return &c.stats }

func (c *Committer) run() {
	defer c.wg.Done()
	for blk := range c.deliver {
		c.stats.QueueDepth.Add(-1)
		if !c.failed.Load() {
			start := metrics.StartWatch()
			if err := c.commit(blk); err != nil {
				c.fail(err)
			} else {
				c.stats.CommitLatencyNS.Record(start.ElapsedNS())
			}
		}
		c.pending.Add(-1)
	}
}

func (c *Committer) fail(err error) {
	c.failed.Store(true)
	c.errOnce.Do(func() {
		if c.cfg.OnError != nil {
			c.cfg.OnError(fmt.Errorf("commit: %s: %w", c.cfg.Name, err))
		}
	})
}

// commit checks that the block extends the chain, runs the parallel
// validator, and lands the peer's own copy of the block — verdicts and
// rescue digest already on it — together with its valid writes. A delivered
// block carrying the orderer's precomputed shadow verdicts (blk.Validation)
// is cross-checked byte for byte: the agreement property requires verdicts
// to be a pure function of the stream, so any divergence between the
// orderer's value-free derivation and the peer's full validation is a
// pipeline bug that must fail loudly rather than be silently re-derived
// around. Nothing is stored before that check passes.
//
// The landing is the peer's one commit point. On a durable peer the block's
// record, its writes and the height land as one atomic batch; then the state
// height is published, then the chain tip — so whoever sees the tip at N
// sees the state at N or later, in memory and on disk.
func (c *Committer) commit(blk *ledger.Block) error {
	if err := c.cfg.Chain.Check(blk); err != nil {
		return fmt.Errorf("append block %d: %w", blk.Header.Number, err)
	}
	res := ValidateBlock(c.cfg.State, blk, c.cfg.Validation)
	for _, tx := range blk.Transactions {
		c.cfg.Tracer.Record(string(tx.ID), trace.StageValidate, blk.Header.Number)
	}
	if blk.Validation != nil {
		if err := AssertVerdictsEqual(blk.Header.Number, blk.Validation, res.Codes); err != nil {
			return err
		}
		// The rescue digest is part of the same agreement contract: the
		// peer's re-derived write sets must byte-match the orderer's.
		if !bytes.Equal(blk.RescueDigest, res.Rescue.Digest) {
			return fmt.Errorf("block %d: peer rescue digest %x diverges from sealed digest %x",
				blk.Header.Number, res.Rescue.Digest, blk.RescueDigest)
		}
	}
	peerBlk := &ledger.Block{Header: blk.Header, Transactions: blk.Transactions, Validation: res.Codes, RescueDigest: res.Rescue.Digest}
	var riders []kvstore.BatchOp
	if c.cfg.State.Durable() {
		riders = []kvstore.BatchOp{ledger.Record(peerBlk)}
	}
	if err := c.cfg.State.ApplyBlock(peerBlk.Header.Number, res.Writes, riders...); err != nil {
		return fmt.Errorf("apply block %d: %w", peerBlk.Header.Number, err)
	}
	if err := c.cfg.Chain.Append(peerBlk); err != nil {
		return fmt.Errorf("append block %d: %w", peerBlk.Header.Number, err)
	}
	c.stats.BlocksCommitted.Inc()
	if c.cfg.Tracer != nil {
		num := peerBlk.Header.Number
		for i, tx := range peerBlk.Transactions {
			c.cfg.Tracer.Record(string(tx.ID), trace.StageCommit, num)
			if res.Codes[i] == protocol.Rescued {
				c.cfg.Tracer.Record(string(tx.ID), trace.StageRescue, num)
			}
		}
	}
	c.stats.TxsValidated.Add(uint64(len(peerBlk.Transactions)))
	if res.Groups > 0 {
		c.stats.ValidationGroups.Add(uint64(res.Groups))
		c.stats.GroupsPerBlock.Record(int64(res.Groups))
	}
	if res.Rescue.Attempted > 0 {
		c.stats.RescueAttempts.Add(uint64(res.Rescue.Attempted))
		c.stats.RescueCommitted.Add(uint64(res.Rescue.Rescued))
		c.stats.RescueStillAborted.Add(uint64(res.Rescue.StillAborted()))
		c.stats.RescueRoundsPerBlock.Record(int64(res.Rescue.Rounds))
	}
	if c.cfg.OnCommit != nil {
		c.cfg.OnCommit(peerBlk, res.Codes)
	}
	return nil
}

// AssertVerdictsEqual compares the orderer's precomputed codes against the
// peer's own, reporting the first divergent transaction. The simulator's
// commit station holds its reference validator to the same assertion.
func AssertVerdictsEqual(block uint64, precomputed, derived []protocol.ValidationCode) error {
	if len(precomputed) != len(derived) {
		return fmt.Errorf("block %d: %d precomputed verdicts vs %d derived", block, len(precomputed), len(derived))
	}
	for i := range derived {
		if precomputed[i] != derived[i] {
			return fmt.Errorf("block %d tx %d: peer verdict %v diverges from orderer shadow verdict %v",
				block, i, derived[i], precomputed[i])
		}
	}
	return nil
}
