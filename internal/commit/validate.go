// Package commit implements the validation/commit stage of the EOV pipeline:
// Block is one peer's commit point, called on the goroutine that received
// the block, so the ordering phase seals and fans out blocks without ever
// touching peer state (Section 2.1's phase independence), and peers commit
// concurrently with ordering and with each other.
//
// A peer derives a block's verdicts with the orderers' own function,
// validation.ComputeVerdictsPrechecked: the endorsement-signature checks
// (ed25519, the dominant cost) fan out over a worker pool first, then the
// MVCC rule folds over the block in order against the peer's committed
// versions. The rule is a few version lookups per transaction, too little
// work to pay for splitting a block into key-disjoint groups. Systems whose
// ordering phase already guarantees serializability (Sharp, Focc-s) skip the
// MVCC rule entirely and go straight from the signature checks to one
// batched statedb.ApplyBlock.
//
// When rescue is enabled, a second phase follows: the post-order speculative
// re-execution of internal/reexec flips recoverable conflict verdicts —
// MVCCConflict, or under a scheduler that skips MVCC the block's deferred
// tail — to Rescued, replacing their declared write sets with re-executed
// ones. Peers re-derive the rescue outcome locally and byte-assert its
// digest against the sealed block, the same agreement contract the verdict
// codes already follow.
package commit

import (
	"runtime"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
)

// Options configures block validation: the verdict switches the orderers
// use too (MVCC, MSP, Policy) plus the parallelism cap and the post-order
// rescue switch.
type Options struct {
	validation.Options
	// Workers caps the endorsement checks' and the rescue phase's
	// parallelism; 0 means GOMAXPROCS.
	Workers int
	// Rescue enables post-order speculative re-execution of conflict-aborted
	// transactions: MVCC casualties, or with MVCC off the block's deferred
	// tail (requires Registry).
	Rescue bool
	// Registry resolves contracts for the rescue phase's re-execution.
	Registry *chaincode.Registry
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) rescueEnabled() bool { return o.Rescue && o.Registry != nil }

// BlockResult is the outcome of validating one block.
type BlockResult struct {
	// Codes are the per-transaction validation codes, in block order.
	Codes []protocol.ValidationCode
	// Writes are the committed transactions' write sets (declared for Valid,
	// re-executed for Rescued), in block order, ready for one batched
	// statedb.ApplyBlock.
	Writes []statedb.BlockWrites
	// Rescue is the post-order re-execution outcome (zero value when the
	// rescue phase did not run). Its Digest must byte-match the sealed
	// block's RescueDigest.
	Rescue reexec.Outcome
}

// ValidateBlock validates every transaction of blk against db and returns
// the codes and the batched writes — it does not apply them. The verdicts
// are validation.ComputeVerdictsPrechecked's over the database's versions,
// the function every orderer runs over its shadow at the cut, with the
// endorsement mask computed on opts' workers.
func ValidateBlock(db *statedb.DB, blk *ledger.Block, opts Options) BlockResult {
	workers := opts.workers()
	endorseFailed := validation.PrecheckEndorsements(blk.Transactions, opts.Options, workers)
	codes := validation.ComputeVerdictsPrechecked(validation.DBVersions(db), blk.Header.Number, blk.Transactions, opts.Options, endorseFailed)

	// Post-order rescue: re-execute MVCC casualties against the committed
	// state under the block's valid writes. db still sits at the pre-block
	// height here (writes apply after validation), matching the orderer's
	// shadow view at cut time. With MVCC off the candidates are the tail the
	// orderer deferred, designated from the sealed codes (preRescue): a peer
	// under such a scheduler already accepts the sealed serial order without
	// a concurrency check, any designation re-executes serially after the
	// block, and the byte-asserts on verdicts and digest make a wrong one
	// fatal rather than trusted.
	var res BlockResult
	if opts.rescueEnabled() {
		if !opts.MVCC && len(blk.Validation) == len(codes) {
			for i, sealed := range blk.Validation {
				if codes[i] == protocol.Valid && (sealed == protocol.Rescued || sealed.Deferrable()) {
					codes[i] = preRescue(sealed)
				}
			}
		}
		res.Rescue = reexec.Run(reexec.DBSource(db), blk.Header.Number, blk.Transactions, codes,
			reexec.Options{Registry: opts.Registry, Workers: workers})
		codes = res.Rescue.Codes
	}
	res.Codes = codes
	res.Writes = WritesForRescued(blk, codes, res.Rescue.Writes)
	return res
}

// preRescue maps a sealed verdict to a code the rescue phase re-derives it
// from: a Rescued one was a candidate (MVCCConflict stands for whichever
// candidate code it carried — they re-execute alike), and every other code,
// a failed tail member's Deferrable arrival code included, is what it was.
func preRescue(sealed protocol.ValidationCode) protocol.ValidationCode {
	if sealed == protocol.Rescued {
		return protocol.MVCCConflict
	}
	return sealed
}

// WritesFor assembles the batched ApplyBlock input from a block and its
// final validation codes. Blocks carrying Rescued verdicts need the
// re-executed write sets too: use WritesForRescued.
func WritesFor(blk *ledger.Block, codes []protocol.ValidationCode) []statedb.BlockWrites {
	return WritesForRescued(blk, codes, nil)
}

// WritesForRescued is WritesFor plus the rescue outcome: rescued[i], when
// the slice is non-nil, holds the re-executed write set applied for each
// Rescued transaction. Positions follow protocol.CommitPositions: valid
// writes at their in-block position, rescued writes after the whole block
// (post-order), emitted in ascending position order so the state database's
// per-key history stays version-sorted.
func WritesForRescued(blk *ledger.Block, codes []protocol.ValidationCode, rescued [][]protocol.WriteItem) []statedb.BlockWrites {
	pos := protocol.CommitPositions(codes)
	var writes []statedb.BlockWrites
	for i, tx := range blk.Transactions {
		if codes[i] == protocol.Valid && len(tx.RWSet.Writes) > 0 {
			writes = append(writes, statedb.BlockWrites{Pos: pos[i], Writes: tx.RWSet.Writes})
		}
	}
	for i := range blk.Transactions {
		if codes[i] != protocol.Rescued {
			continue
		}
		if rescued == nil {
			panic("commit: WritesFor on a block with Rescued verdicts (use WritesForRescued)")
		}
		if len(rescued[i]) > 0 {
			writes = append(writes, statedb.BlockWrites{Pos: pos[i], Writes: rescued[i]})
		}
	}
	return writes
}
