package orderer

import (
	"fmt"
	"runtime"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/reexec"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/validation"
)

// replica is one replicated orderer: it consumes the consensus stream, runs
// its scheduler (Algorithm 2 on arrival, Algorithm 3 at formation for
// Sharp), seals blocks on its own hash chain, and — when it is the lead
// replica — hands them to the service's deliveries. Because every replica
// runs the same deterministic scheduler over the same stream, all orderer
// chains are identical (the agreement property of Section 3.5, asserted in
// tests).
//
// Commit feedback is a pure function of the stream: right after sealing
// block N, every replica runs the shadow validator (ComputeVerdicts over a
// value-free ShadowState) to derive the exact codes the peers will compute,
// feeds them to its own scheduler's OnBlockCommitted, and embeds them in the
// sealed block. This makes the agreement property exact even for schedulers
// whose block contents depend on verdicts (Focc-l's doomed-transaction
// detection): lead and followers see identical feedback at identical stream
// positions. The peers' committers assert byte-equality against the
// embedded codes, so a drift between the two derivations fails loudly.
//
// A replica never touches peer state: delivery is a channel send or a
// wake-up, and consensus-stream consumption stays pipelined with peer
// commits.
type replica struct {
	svc       *Service
	name      string
	scheduler sched.Scheduler
	chain     *ledger.Chain
	// lead marks the one replica that reports aborts, records trace stages
	// and delivers its sealed blocks, so observers see each event once.
	lead bool
	// shadow is the replica's version state (value-tracking when rescue is
	// on); vopts carries the same validation switches the peers run, so
	// ComputeVerdicts here and ValidateBlock there are the same function
	// over the same inputs. rescue enables the post-order re-execution pass
	// at cut time, mirroring the peers' committer phase 3.
	shadow *validation.ShadowState
	vopts  validation.Options
	rescue bool
	// seen dedups TxIDs. Entries are bucketed by the block being assembled
	// when they were first seen and evicted DedupHorizon sealed blocks
	// later — eviction happens at cut time, a stream-determined position, so
	// every replica's seen-set stays identical. seenFloor is the lowest
	// bucket not yet evicted.
	seen        map[protocol.TxID]bool
	seenByBlock map[uint64][]protocol.TxID
	seenFloor   uint64
	broker      *CommitmentBroker // non-nil when the service runs hash commitments
}

func (o *replica) run() {
	defer o.svc.wg.Done()
	stream, cancel := o.svc.cfg.Ordering.Subscribe()
	defer cancel()
	//sharp:allow seaminject block-cut timer only proposes TTC cut markers into the consensus stream; sealed output remains a pure function of that stream
	timer := time.NewTimer(o.svc.cfg.BlockTimeout)
	defer timer.Stop()
	timerArmed := false
	disarm := func() {
		if timerArmed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerArmed = false
	}
	arm := func() {
		disarm()
		timer.Reset(o.svc.cfg.BlockTimeout)
		timerArmed = true
	}

	for {
		// Fatal check first, non-blocking: select picks ready cases at
		// random, so without this a busy consensus stream could keep
		// winning over the closed fatalCh and the orderer would go on
		// driving a faulted scheduler.
		select {
		case <-o.svc.fatalCh:
			return
		default:
		}
		select {
		case <-o.svc.done:
			return
		case <-o.svc.fatalCh:
			// A poisoned block or scheduler fault elsewhere: stop consuming
			// rather than extending a chain nobody will commit.
			return
		case <-timer.C:
			timerArmed = false
			if o.scheduler.PendingCount() > 0 {
				// Do not cut locally: post a time-to-cut marker through
				// consensus so every replica cuts at the same stream
				// position (deterministic block boundaries). The submit is
				// best-effort — on a Raft follower it fails with ErrNotLeader
				// by design (the leader's replica proposes the marker) — so
				// re-arm and keep proposing until the cut lands. Without the
				// retry a replica that fired as a follower and later won an
				// election would sit on pending transactions forever.
				_ = o.svc.cfg.Ordering.Submit(consensus.Envelope{SubmittedBy: o.name, CutBlock: o.nextCutBlock()})
				arm()
			}
		case seq, ok := <-stream:
			if !ok {
				// Consensus closed: cut the tail so waiters resolve.
				if o.scheduler.PendingCount() > 0 {
					o.cut()
				}
				return
			}
			if seq.Env.Commitment != "" {
				// Phase-1 hash commitment (Section 3.5): only the digest's
				// position is fixed now.
				if o.broker != nil {
					o.broker.Commit(seq.Env.Commitment)
				}
				continue
			}
			if seq.Env.Tx == nil {
				// Time-to-cut marker. Cut if it targets the block still
				// being assembled; stale markers (another replica already
				// triggered the cut, or the block filled up) are ignored.
				if seq.Env.CutBlock == o.nextCutBlock() && o.scheduler.PendingCount() > 0 {
					o.cut()
					disarm()
				}
				continue
			}
			if seq.Env.Disclosure && o.broker != nil {
				// Phase-2 payload reveal: process whatever became
				// releasable, in commitment order.
				released, err := o.broker.Disclose(seq.Env.Tx)
				if err != nil {
					// Disclosure without (or not matching) a commitment:
					// the client broke its security commitment.
					o.abort(seq.Env.Tx.ID, protocol.EndorsementFailure)
					continue
				}
				for _, tx := range released {
					o.processArrival(tx, arm, disarm)
				}
				continue
			}
			o.processArrival(seq.Env.Tx, arm, disarm)
		}
	}
}

// processArrival runs one transaction through dedup and the scheduler,
// cutting a block when the batch fills.
func (o *replica) processArrival(tx *protocol.Transaction, arm, disarm func()) {
	if o.seen[tx.ID] {
		o.abort(tx.ID, protocol.AbortDuplicate)
		return
	}
	o.seen[tx.ID] = true
	bucket := o.nextCutBlock()
	o.seenByBlock[bucket] = append(o.seenByBlock[bucket], tx.ID)
	if tx.SnapshotBlock >= bucket {
		// A snapshot at or above the block being assembled: no peer can have
		// endorsed against a block that is not sealed yet, so the envelope
		// is forged. Rejecting it here — a pure function of the stream
		// position — keeps hostile input from reaching the schedulers'
		// contract checks (core.Manager.OnArrival would turn it fatal).
		o.abort(tx.ID, protocol.EndorsementFailure)
		return
	}
	code, err := o.scheduler.OnArrival(tx)
	if err != nil {
		o.svc.Fail(fmt.Errorf("orderer: %s arrival: %w", o.name, err))
		return
	}
	if code != protocol.Valid {
		o.abort(tx.ID, code)
		return
	}
	if o.lead {
		// Stage telemetry: the scheduler admitted the transaction from the
		// consensus stream.
		o.svc.cfg.Tracer.Record(string(tx.ID), trace.StageOrder, 0)
	}
	if o.scheduler.PendingCount() >= o.svc.cfg.BlockSize {
		o.cut()
		disarm()
	} else if o.scheduler.PendingCount() == 1 {
		arm()
	}
}

// nextCutBlock returns the number of the block currently being assembled.
func (o *replica) nextCutBlock() uint64 {
	return uint64(o.chain.Len()) + 1
}

// evictSeen drops dedup entries first seen while assembling blocks at least
// DedupHorizon sealed blocks ago. Sealed-block count is a pure function of
// the stream, so eviction — and therefore the dedup decision for any future
// TxID — is identical on every replica. A duplicate resubmitted after its
// original fell past the horizon is re-admitted; the horizon bounds the map
// for sustained million-transaction runs and is sized so that only a client
// deliberately replaying ancient transactions can cross it.
func (o *replica) evictSeen(sealed uint64) {
	horizon := o.svc.cfg.DedupHorizon
	if sealed < horizon {
		return
	}
	for b := o.seenFloor; b+horizon <= sealed; b++ {
		for _, id := range o.seenByBlock[b] {
			delete(o.seen, id)
		}
		delete(o.seenByBlock, b)
		o.seenFloor = b + 1
	}
}

// cut forms a block, seals it on the replica's chain with the shadow
// verdicts embedded, feeds those verdicts to the scheduler, and (lead only)
// hands the block to the deliveries. Ordering never waits for validation:
// the only way this blocks is backpressure from a delivery.
//
// The cut is also where intern-table epoch compaction fires (inside
// OnBlockFormation, when Options.CompactEvery is set): a cut lands at the
// same consensus-stream position on every replica, which is what makes the
// KeyID remappings replica-deterministic. The shadow validator's state is
// string-keyed and unaffected.
func (o *replica) cut() {
	res, err := o.scheduler.OnBlockFormation()
	if err != nil {
		o.svc.Fail(fmt.Errorf("orderer: %s formation: %w", o.name, err))
		return
	}
	for _, d := range res.DroppedTxs {
		o.abort(d.Tx.ID, d.Code)
	}
	if len(res.Ordered) == 0 {
		return
	}
	num := o.nextCutBlock()
	if res.Block != num {
		o.svc.Fail(fmt.Errorf("orderer: %s block numbering drifted: scheduler %d, chain %d", o.name, res.Block, num))
		return
	}
	// The shadow validation pass: the same verdict function the peers run,
	// over the value-free version state this replica has accumulated from
	// the stream alone. Synchronous on every replica, so the scheduler
	// receives feedback for block N before any input that follows it. The
	// endorsement phase — ed25519 verification, the dominant CPU cost — is
	// a per-transaction pure function, so it fans out across cores; only
	// the overlay-coupled MVCC pass is serial.
	endorseFailed := validation.PrecheckEndorsements(res.Ordered, o.vopts, runtime.GOMAXPROCS(0))
	codes := validation.ComputeVerdictsPrechecked(o.shadow, num, res.Ordered, o.vopts, endorseFailed)
	// The post-order rescue pass: re-execute the MVCC casualties against the
	// value shadow (still at height num-1) under the block's valid writes —
	// the same deterministic phase the peer committers run, so the rescued
	// codes and digest sealed here are exactly what every peer re-derives.
	var rescueWrites [][]protocol.WriteItem
	var rescueDigest []byte
	if o.rescue {
		out := reexec.Run(o.shadow, num, res.Ordered, codes,
			reexec.Options{Registry: o.svc.cfg.Registry, Workers: runtime.GOMAXPROCS(0)})
		codes = out.Codes
		rescueWrites = out.Writes
		rescueDigest = out.Digest
	}
	blk, err := o.chain.SealRescued(res.Ordered, codes, rescueDigest)
	if err != nil {
		o.svc.Fail(fmt.Errorf("orderer: %s seal: %w", o.name, err))
		return
	}
	o.shadow.ApplyRescued(num, res.Ordered, codes, rescueWrites)
	o.scheduler.OnBlockCommitted(num, res.Ordered, codes)
	o.evictSeen(num)
	if !o.lead {
		return
	}
	for _, tx := range res.Ordered {
		o.svc.cfg.Tracer.Record(string(tx.ID), trace.StageSeal, num)
	}
	o.svc.dispatch(blk)
}

// abort reports, from the lead replica only, a transaction resolved before
// it reached a block.
func (o *replica) abort(id protocol.TxID, code protocol.ValidationCode) {
	if o.lead && o.svc.cfg.OnAbort != nil {
		o.svc.cfg.OnAbort(id, code)
	}
}
