package commit

import (
	"bytes"
	"fmt"

	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
)

// historyBlocks is how many blocks of version history a peer keeps behind
// its tip: after block N commits, snapshots older than N-historyBlocks are
// pruned (statedb.PruneSnapshots). It is the default MaxSpan plus one — an
// endorsement reads at the snapshot its simulation started from, and the
// orderer aborts any snapshot MaxSpan or more blocks behind as stale.
const historyBlocks = 11

// Block commits one delivered block to a peer's state and tip: it checks
// that the block extends the tip, validates it, and lands the peer's own
// copy of the block — verdicts and rescue digest already on it — together
// with its valid writes. frame, when non-nil, is the canonical encoding the
// block was decoded from. The caller is the tip's only writer and delivers
// blocks in chain order; the block is not mutated, and nothing keeps a
// reference to it once committed. tracer, when non-nil, records the block's
// deliver, validate and commit stages once each (trace.Merge hands them to
// the transactions the orderer sealed into it), each rescued transaction's
// rescue stage, and the block's checkpoint and fold spans — write-only
// telemetry outside the deterministic scope (see internal/trace).
//
// A delivered block carrying the orderer's precomputed shadow verdicts
// (blk.Validation) is cross-checked byte for byte: the agreement property
// requires verdicts to be a pure function of the stream, and both sides run
// one verdict function, so a divergence means the orderer's shadow and the
// peer's state diverged — a pipeline bug that must fail loudly rather than
// be silently re-derived around. Nothing is stored before that check passes.
//
// The landing is the peer's one commit point. On a durable peer the block's
// record, its writes and the height land as one atomic batch; then the state
// height is published, then the tip — so whoever sees the tip at N sees the
// state at N or later, in memory and on disk. A durable peer stores frame as
// the block's record when the block carries sealed verdicts, which the
// commit holds equal to its own; it encodes only a block that arrives
// without them. The tip advances on the header Check passed, so the block's
// data hash is computed once.
func Block(state *statedb.DB, tip *ledger.Tip, blk *ledger.Block, frame []byte, opts Options, tracer *trace.Tracer) error {
	num := blk.Header.Number
	tracer.Record("", trace.StageDeliver, num)
	checked, err := tip.Check(blk)
	if err != nil {
		return fmt.Errorf("append block %d: %w", num, err)
	}
	res := ValidateBlock(state, blk, opts)
	tracer.Record("", trace.StageValidate, num)
	if blk.Validation != nil {
		if err := AssertVerdictsEqual(num, blk.Validation, res.Codes); err != nil {
			return err
		}
		// The rescue digest is part of the same agreement contract: the
		// peer's re-derived write sets must byte-match the orderer's.
		if !bytes.Equal(blk.RescueDigest, res.Rescue.Digest) {
			return fmt.Errorf("block %d: peer rescue digest %x diverges from sealed digest %x",
				num, res.Rescue.Digest, blk.RescueDigest)
		}
	}
	peerBlk := &ledger.Block{Header: blk.Header, Transactions: blk.Transactions, Validation: res.Codes, RescueDigest: res.Rescue.Digest}
	var riders []kvstore.BatchOp
	switch {
	case !state.Durable():
	case frame != nil && blk.Validation != nil:
		// The peer's verdicts and digest are the sealed ones (checked
		// above), so its block encodes to the canonical frame received.
		riders = []kvstore.BatchOp{ledger.RecordFrame(num, frame)}
	default:
		riders = []kvstore.BatchOp{ledger.Record(peerBlk)}
	}
	checkpoints, applyStart := state.Checkpoints(), tracer.Now()
	if err := state.ApplyBlock(num, res.Writes, riders...); err != nil {
		return fmt.Errorf("apply block %d: %w", num, err)
	}
	if state.Checkpoints() != checkpoints {
		tracer.RecordSpan(num, trace.StageCheckpoint, applyStart)
	}
	if err := tip.Advance(checked, peerBlk); err != nil {
		return fmt.Errorf("append block %d: %w", num, err)
	}
	if num > historyBlocks {
		folds, pruneStart := state.Folds(), tracer.Now()
		state.PruneSnapshots(num - historyBlocks)
		if state.Folds() != folds {
			tracer.RecordSpan(num, trace.StageFold, pruneStart)
		}
	}
	tracer.Record("", trace.StageCommit, num)
	for i, code := range res.Codes {
		if code == protocol.Rescued {
			tracer.Record(string(blk.Transactions[i].ID), trace.StageRescue, num)
		}
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
