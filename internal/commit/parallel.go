// Package commit implements the validation/commit stage of the EOV pipeline
// as an independent, pipelined subsystem: each validating peer owns a
// Committer goroutine fed by a buffered delivery channel, so the ordering
// phase seals and fans out blocks without ever touching peer state
// (Section 2.1's phase independence), and peers commit concurrently with
// ordering and with each other.
//
// Inside a block, validation itself is parallel: transactions are
// partitioned into key-disjoint conflict groups (internal/conflict's
// union-find over read/write keys), each group validates sequentially in
// block order against its own overlay, and independent groups run on a
// worker pool sized by GOMAXPROCS. Systems whose ordering phase already
// guarantees serializability (Sharp, Focc-s) skip the MVCC partition
// entirely and go straight from parallel endorsement-signature checks to one
// batched statedb.ApplyBlock.
//
// When rescue is enabled, a third phase follows: the post-order speculative
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
	"fabricsharp/internal/conflict"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
)

// Options configures parallel block validation: the shared validation
// switches (MVCC, MSP, Policy — one struct with the sequential reference,
// so the two paths cannot drift apart) plus the parallelism cap and the
// post-order rescue switch.
type Options struct {
	validation.Options
	// Workers caps validation parallelism; 0 means GOMAXPROCS.
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
	// Groups is the number of key-disjoint conflict groups the MVCC phase
	// validated concurrently (0 when MVCC was skipped).
	Groups int
	// Rescue is the post-order re-execution outcome (zero value when the
	// rescue phase did not run). Its Digest must byte-match the sealed
	// block's RescueDigest.
	Rescue reexec.Outcome
}

// ValidateBlock validates every transaction of blk against db and returns
// the codes and the batched writes — it does not apply them. The result is
// byte-identical to the sequential validation.ValidateAndCommit (plus the
// deterministic rescue phase when enabled): endorsement checks are
// embarrassingly parallel, and the MVCC overlay rule only couples
// transactions that share a key, so key-disjoint groups validate
// independently without changing any verdict.
func ValidateBlock(db *statedb.DB, blk *ledger.Block, opts Options) BlockResult {
	codes := make([]protocol.ValidationCode, len(blk.Transactions))
	workers := opts.workers()

	// Phase 1: endorsement-signature checks — per-transaction, stateless,
	// and the dominant CPU cost (ed25519 verification) — across all workers.
	for i, failed := range validation.PrecheckEndorsements(blk.Transactions, opts.Options, workers) {
		if failed {
			codes[i] = protocol.EndorsementFailure
		}
	}

	// Phase 2: MVCC, partitioned by read/write-key overlap. Transactions
	// already failed by endorsement write nothing and constrain nothing, so
	// they stay out of the partition.
	var res BlockResult
	if opts.MVCC {
		groupList := conflict.Partition(blk.Transactions, func(i int) bool {
			return codes[i] == protocol.Valid
		})
		res.Groups = len(groupList)
		base := validation.DBVersions(db)
		// Groups touch disjoint key sets, so their overlays never interact and
		// the shared base is only read.
		conflict.ParallelFor(len(groupList), workers, func(g int) {
			overlay := validation.NewOverlay()
			current := func(key string) (seqno.Seq, bool) {
				return overlay.Version(base, key)
			}
			for _, i := range groupList[g] {
				tx := blk.Transactions[i]
				if !validation.ReadsFresh(tx, current) {
					codes[i] = protocol.MVCCConflict
					continue
				}
				overlay.Record(seqno.Commit(blk.Header.Number, uint32(i+1)), tx.RWSet.Writes)
			}
		})
	}

	// Phase 3: post-order rescue — re-execute MVCC casualties against the
	// committed state under the block's valid writes. db still sits at the
	// pre-block height here (writes apply after validation), matching the
	// orderer's shadow view at cut time. With MVCC off the candidates are the
	// tail the orderer deferred, designated from the sealed codes (preRescue):
	// a peer under such a scheduler already accepts the sealed serial order
	// without a concurrency check, any designation re-executes serially after
	// the block, and the byte-asserts on verdicts and digest make a wrong one
	// fatal rather than trusted.
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
