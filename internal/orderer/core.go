package orderer

import (
	"fmt"
	"runtime"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/validation"
)

// CoreConfig is what a Core is assembled from.
type CoreConfig struct {
	Options
	// MSP and Policy verify endorsements in the shadow validation pass —
	// the same pair the peers validate with. Both nil skips the check (the
	// simulator's transactions carry no signatures).
	MSP    *identity.Service
	Policy identity.Policy
	// Registry resolves contracts for the rescue re-execution.
	Registry *chaincode.Registry
}

// Core is the ordering state machine: dedup, the forged-snapshot reject, the
// scheduler (Algorithm 2 on arrival, Algorithm 3 at formation for Sharp), the
// deferred tail, the shadow verdicts, the rescue re-execution, the seal and
// the commit feedback.
// It holds no goroutine, clock or channel and is not goroutine-safe (the
// fan-outs inside Precheck and Cut join before they return): what it seals
// is a function of the calls made on it, so replicated orderers making the
// same calls build byte-identical chains — the agreement property of
// Section 3.5.
// Service makes those calls in real time, internal/network in virtual time.
//
// Commit feedback is part of the cut: the shadow validator derives the exact
// codes the peers will compute, and they reach the scheduler's
// OnBlockCommitted before any later arrival — which keeps agreement exact
// even for Focc-l, whose block contents depend on verdicts. The peers'
// committers assert byte-equality against the codes sealed in the block, so a
// drift between the two derivations fails loudly.
type Core struct {
	cfg       CoreConfig
	scheduler sched.Scheduler
	chain     *ledger.Chain
	// shadow is the committed state as this Core derives it; vopts
	// carries the same validation switches the peers run, so ComputeVerdicts
	// here and ValidateBlock there are the same function over the same
	// inputs.
	shadow *validation.ShadowState
	vopts  validation.Options
	// deferred is the open block's tail: arrivals the scheduler rejected for
	// a dependency reason (protocol.Deferrable) that a rescue-enabled Core
	// under an MVCC-skipping scheduler keeps for post-order re-execution at
	// the cut instead of aborting — XOX Fabric's hybrid. A pure function of
	// the stream, like the scheduler's own verdicts.
	deferred []deferredTx
	// unchecked holds the open batch's members — admitted Valid or deferred —
	// whose endorsements no Precheck has verified yet; checked holds the
	// verdicts of those it has (true: the check failed). Cut verifies only the
	// block members found in neither and forgets both. Empty without an MSP.
	unchecked []*protocol.Transaction
	checked   map[*protocol.Transaction]bool
	// raw holds the canonical bytes each open-batch member arrived in, and
	// disclosed those of disclosures the commitment broker holds back, so
	// the cut seals the bytes already in hand; the chain encodes a member
	// that arrived without them.
	raw       map[*protocol.Transaction][]byte
	disclosed map[*protocol.Transaction][]byte
	// seen dedups TxIDs, bucketed by the block being assembled when they
	// were first seen; seenFloor is the lowest bucket evictSeen has not
	// dropped yet.
	seen        map[protocol.TxID]bool
	seenByBlock map[uint64][]protocol.TxID
	seenFloor   uint64
	broker      *CommitmentBroker // non-nil under hash commitments
}

// deferredTx is one tail member and the arrival code it is sealed under if
// its re-execution fails.
type deferredTx struct {
	tx   *protocol.Transaction
	code protocol.ValidationCode
}

// NewCore builds the scheduler, an empty chain and the genesis-seeded
// shadow.
func NewCore(cfg CoreConfig) (*Core, error) {
	cfg.Options = cfg.Options.withDefaults()
	scheduler, err := sched.New(cfg.System, sched.Options{MaxSpan: cfg.MaxSpan})
	if err != nil {
		return nil, err
	}
	chain, err := ledger.NewChain(nil)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:         cfg,
		scheduler:   scheduler,
		chain:       chain,
		shadow:      validation.NewValueShadowState(),
		vopts:       validation.Options{MVCC: scheduler.NeedsMVCCValidation(), MSP: cfg.MSP, Policy: cfg.Policy},
		checked:     map[*protocol.Transaction]bool{},
		raw:         map[*protocol.Transaction][]byte{},
		disclosed:   map[*protocol.Transaction][]byte{},
		seen:        map[protocol.TxID]bool{},
		seenByBlock: map[uint64][]protocol.TxID{},
		seenFloor:   1,
	}
	// An endorsement over a genesis key carries workload.GenesisVersion in
	// its read set: the shadow validator has to see that same version or its
	// sealed verdict would diverge from peer validation. The base is built
	// here, not by the caller: a Raft member has started by now, and its
	// election timer runs while the build does.
	if cfg.Genesis != nil {
		base, err := cfg.Genesis()
		if err != nil {
			return nil, fmt.Errorf("orderer: genesis: %w", err)
		}
		if err := c.shadow.SeedBase(base); err != nil {
			return nil, err
		}
	}
	// The shadow holds the base; whatever the function captured is not kept.
	c.cfg.Genesis = nil
	if cfg.HashCommitment {
		c.broker = NewCommitmentBroker()
	}
	return c, nil
}

// Events receives what a Step resolves, as it happens: an admission before
// the cut it triggers, a cut's formation drops before its sealed block.
type Events interface {
	// Admitted: the transaction joined the open block — accepted by the
	// scheduler (code Valid) or deferred to the block's tail under the
	// scheduler's arrival code.
	Admitted(id protocol.TxID, code protocol.ValidationCode)
	// Aborted: the transaction was resolved before it reached a block — a
	// duplicate, forged snapshot, early abort, broken disclosure or
	// formation drop.
	Aborted(id protocol.TxID, code protocol.ValidationCode)
	// Sealed: the block joined the chain, verdicts embedded.
	Sealed(blk *ledger.Block)
	// CutStage marks a boundary inside the cut of block num, for a driver
	// that times it (the Core reads no clock): trace.StageCut as the cut
	// begins, then the end of each of trace.StageFormation, StagePrecheck,
	// StageReexec and StageFeedback, which run back to back. StagePrecheck
	// covers the endorsements no Precheck verified before the cut, and the
	// shadow verdicts. The seal and the shadow state's apply follow, up to
	// Sealed; when the apply folds the shadow first
	// (validation.ShadowState.FoldDue), trace.StageFold marks its start.
	CutStage(num uint64, stage trace.Stage)
}

// Step applies one envelope of the consensus stream under the cut rules
// every replicated orderer shares: a block is cut when the batch reaches
// BlockSize, or when a time-to-cut marker names the block still being
// assembled. Folding Step over a stream is therefore all a replica needs to
// reproduce another's chain. An error is fatal to the Core.
func (c *Core) Step(env consensus.Envelope, ev Events) error {
	switch {
	case env.Commitment != "":
		// Phase-1 hash commitment (Section 3.5): only the digest's position
		// is fixed now.
		if c.broker != nil {
			c.broker.Commit(env.Commitment)
		}
	case env.Tx == nil:
		// Time-to-cut marker. Stale markers (the block already filled up,
		// or an earlier marker cut it) are ignored.
		if env.CutBlock == c.NextBlock() && c.Pending() > 0 {
			return c.cut(ev)
		}
	case env.Disclosure && c.broker != nil:
		// Phase-2 payload reveal: process whatever became releasable, in
		// commitment order. A disclosure without (or not matching) a
		// commitment broke the client's security commitment.
		released, err := c.broker.Disclose(env.Tx)
		if err != nil {
			ev.Aborted(env.Tx.ID, protocol.EndorsementFailure)
			break
		}
		c.disclosed[env.Tx] = env.TxBytes
		for _, tx := range released {
			raw := c.disclosed[tx]
			delete(c.disclosed, tx)
			if err := c.admit(tx, raw, ev); err != nil {
				return err
			}
		}
	default:
		return c.admit(env.Tx, env.TxBytes, ev)
	}
	return nil
}

// admit runs one transaction, which arrived as raw, through Arrive, cutting
// when the batch fills.
func (c *Core) admit(tx *protocol.Transaction, raw []byte, ev Events) error {
	code, joined, err := c.Arrive(tx)
	if err != nil {
		return err
	}
	if !joined {
		ev.Aborted(tx.ID, code)
		return nil
	}
	if raw != nil {
		c.raw[tx] = raw
	}
	ev.Admitted(tx.ID, code)
	if c.Pending() >= c.cfg.BlockSize {
		return c.cut(ev)
	}
	return nil
}

// cut is Cut reported through ev.
func (c *Core) cut(ev Events) error {
	blk, dropped, err := c.Cut(ev)
	for _, d := range dropped {
		ev.Aborted(d.Tx.ID, d.Code)
	}
	if blk != nil {
		ev.Sealed(blk)
	}
	return err
}

// Arrive runs one transaction through dedup, the forged-snapshot reject and
// the scheduler. joined reports whether it entered the block being
// assembled: admitted by the scheduler (code Valid), or deferred to the
// block's tail under the scheduler's code. Otherwise the code resolves it
// here.
func (c *Core) Arrive(tx *protocol.Transaction) (code protocol.ValidationCode, joined bool, err error) {
	if c.seen[tx.ID] {
		return protocol.AbortDuplicate, false, nil
	}
	c.seen[tx.ID] = true
	bucket := c.NextBlock()
	c.seenByBlock[bucket] = append(c.seenByBlock[bucket], tx.ID)
	if tx.SnapshotBlock >= bucket {
		// A snapshot at or above the block being assembled: no peer can have
		// endorsed against a block that is not sealed yet, so the envelope
		// is forged. Rejecting it here keeps hostile input from reaching the
		// schedulers' contract checks (core.Manager.OnArrival would turn it
		// fatal).
		return protocol.EndorsementFailure, false, nil
	}
	code, err = c.scheduler.OnArrival(tx)
	if err != nil {
		return code, false, fmt.Errorf("orderer: arrival: %w", err)
	}
	joined = code == protocol.Valid
	if code.Deferrable() && c.cfg.Rescue && !c.vopts.MVCC {
		// Not AbortStaleSnapshot: the max-span horizon is what stops an
		// endorsement replayed from beyond DedupHorizon being executed twice.
		c.deferred = append(c.deferred, deferredTx{tx, code})
		joined = true
	}
	if joined && c.verifies() {
		c.unchecked = append(c.unchecked, tx)
	}
	return code, joined, nil
}

// verifies reports whether the shadow pass checks endorsements at all.
func (c *Core) verifies() bool { return c.vopts.MSP != nil && c.vopts.Policy != nil }

// Precheck verifies the endorsements of the open batch's members that joined
// since the last Precheck, fanned out across cores, and remembers which
// failed, so the cut verifies only what joined after it. A driver calls it
// when it has nothing else to do. An endorsement verdict is a pure function
// of the transaction and the MSP, so when Precheck runs — or whether it runs
// at all — moves work, never a sealed byte.
func (c *Core) Precheck() {
	if len(c.unchecked) == 0 {
		return
	}
	failed := validation.PrecheckEndorsements(c.unchecked, c.vopts, runtime.GOMAXPROCS(0))
	for i, tx := range c.unchecked {
		c.checked[tx] = failed[i]
	}
	clear(c.unchecked) // its backing array must not keep sealed members alive
	c.unchecked = c.unchecked[:0]
}

// endorsementVerdicts returns the endorsement failure mask of a block's
// members: remembered where Precheck reached them, verified now where it did
// not. It forgets the batch's verdicts, including those of members formation
// dropped, which the cut never verifies.
func (c *Core) endorsementVerdicts(txs []*protocol.Transaction) []bool {
	if !c.verifies() {
		return nil
	}
	c.unchecked = c.unchecked[:0]
	for _, tx := range txs {
		if _, ok := c.checked[tx]; !ok {
			c.unchecked = append(c.unchecked, tx)
		}
	}
	c.Precheck()
	failed := make([]bool, len(txs))
	for i, tx := range txs {
		failed[i] = c.checked[tx]
	}
	clear(c.checked)
	return failed
}

// Cut forms a block from the pending set, appends the deferred tail, feeds
// the shadow verdicts back to the scheduler and seals the block with them
// embedded. It returns the sealed block (nil when formation ordered nothing
// and nothing was deferred) and the transactions formation dropped. ev, when
// not nil, hears the cut's stage boundaries (Events.CutStage).
func (c *Core) Cut(ev Events) (*ledger.Block, []sched.Dropped, error) {
	num := c.NextBlock()
	mark := func(stage trace.Stage) {
		if ev != nil {
			ev.CutStage(num, stage)
		}
	}
	mark(trace.StageCut)
	res, err := c.scheduler.OnBlockFormation()
	mark(trace.StageFormation)
	if err != nil {
		return nil, nil, fmt.Errorf("orderer: formation: %w", err)
	}
	txs, tail := res.Ordered, c.deferred
	if len(tail) > 0 {
		// The tail rides after everything formation ordered — its Valid set is
		// fixed — and the count of both is what Pending held to BlockSize.
		txs = txs[:len(txs):len(txs)]
		for _, d := range tail {
			txs = append(txs, d.tx)
		}
		c.deferred = nil
	}
	// The shadow validation pass: the same verdict function the peers run,
	// over the version state this Core has accumulated from its inputs
	// alone. The endorsement phase — ed25519 verification, the dominant CPU
	// cost — is a per-transaction pure function, so most of it ran in
	// Precheck while the batch filled; the MVCC pass is serial.
	endorseFailed := c.endorsementVerdicts(txs)
	raws := make([][]byte, len(txs))
	for i, tx := range txs {
		raws[i] = c.raw[tx]
	}
	clear(c.raw)
	if len(txs) == 0 {
		return nil, res.DroppedTxs, nil
	}
	if res.Block != num {
		return nil, res.DroppedTxs, fmt.Errorf("orderer: block numbering drifted: scheduler %d, chain %d", res.Block, num)
	}
	codes := validation.ComputeVerdictsPrechecked(c.shadow, num, txs, c.vopts, endorseFailed)
	// A tail member that passed the endorsement check stands under its
	// arrival code until the rescue pass commits it.
	for i, d := range tail {
		if at := len(res.Ordered) + i; codes[at] == protocol.Valid {
			codes[at] = d.code
		}
	}
	mark(trace.StagePrecheck)
	// The post-order rescue pass: re-execute the MVCC casualties — or the
	// deferred tail — against the value shadow (still at height num-1) under
	// the block's valid writes: the same deterministic phase the peer
	// committers run, so the rescued codes and digest sealed here are exactly
	// what every peer re-derives.
	var rescue reexec.Outcome
	if c.cfg.Rescue {
		rescue = reexec.Run(c.shadow, num, txs, codes, reexec.Options{Registry: c.cfg.Registry})
		codes = rescue.Codes
	}
	mark(trace.StageReexec)
	c.scheduler.OnBlockCommitted(num, txs, codes)
	mark(trace.StageFeedback)
	blk, err := c.chain.SealRescued(txs, raws, codes, rescue.Digest)
	if err != nil {
		return nil, res.DroppedTxs, fmt.Errorf("orderer: seal: %w", err)
	}
	if c.shadow.FoldDue() {
		mark(trace.StageFold)
	}
	c.shadow.ApplyRescued(num, txs, codes, rescue.Writes)
	c.evictSeen(num)
	return blk, res.DroppedTxs, nil
}

// evictSeen drops dedup entries first seen while assembling blocks at least
// DedupHorizon sealed blocks ago. A duplicate resubmitted after its original
// fell past the horizon is re-admitted; the horizon bounds the map for
// sustained million-transaction runs and is sized so that only a client
// deliberately replaying ancient transactions can cross it.
func (c *Core) evictSeen(sealed uint64) {
	for b := c.seenFloor; b+c.cfg.DedupHorizon <= sealed; b++ {
		for _, id := range c.seenByBlock[b] {
			delete(c.seen, id)
		}
		delete(c.seenByBlock, b)
		c.seenFloor = b + 1
	}
}

// Pending returns the size of the block being assembled: what the scheduler
// admitted plus the deferred tail, so BlockSize, the cut timer and the
// time-to-cut marker see one count.
func (c *Core) Pending() int { return c.scheduler.PendingCount() + len(c.deferred) }

// NextBlock returns the number of the block being assembled.
func (c *Core) NextBlock() uint64 { return uint64(c.chain.Len()) + 1 }

// Chain exposes the sealed chain. The chain is goroutine-safe, so a driver's
// readers may walk it while the Core extends it.
func (c *Core) Chain() *ledger.Chain { return c.chain }

// Scheduler exposes the scheduler (its timing counters and statistics).
func (c *Core) Scheduler() sched.Scheduler { return c.scheduler }
