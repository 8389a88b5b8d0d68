// Package trace is the always-on, per-node stage-tracing layer: every
// transaction moving through the pipeline leaves timestamped stage events
// (submit → order → raft-commit → seal → deliver → validate →
// commit/rescue) in a fixed-size lock-free ring buffer, cheap enough to
// stay enabled under production load. Clients drain the rings over the
// wire (MsgTraceReq) and join per-node timelines by TxID into end-to-end
// stage latencies — the observability substrate behind `sharpnet load
// -target-tps` and `sharpnet trace`.
//
// Determinism: the package is inside sharpvet's deterministic scope, but
// recording is strictly write-only side telemetry — nothing in the
// pipeline ever reads a ring or a timestamp back, so sealed output stays a
// pure function of the consensus stream. The single wall-clock read lives
// behind nowNS with the one allowed suppression.
package trace

import (
	"strconv"
	"time"
)

// Stage identifies one pipeline boundary of a transaction's life. The
// numeric order is the pipeline order; merge logic relies on it.
type Stage uint8

const (
	// StageSubmit: an ordering node received the endorsed transaction off
	// the wire (before consensus).
	StageSubmit Stage = 1 + iota
	// StageOrder: the transaction joined the open block from the consensus
	// stream (Algorithm 2 arrival processing): admitted by the scheduler, or
	// deferred to the block's tail (Event.Block then holds the arrival code).
	StageOrder
	// StageRaftCommit: the replicated log acked the transaction
	// quorum-durable (Raft clusters only; absent on standalone orderers).
	StageRaftCommit
	// StageSeal: the transaction was sealed into a block, shadow verdicts
	// embedded.
	StageSeal
	// StageDeliver: the sealed block carrying the transaction arrived at a
	// peer's committer.
	StageDeliver
	// StageValidate: the peer derived the transaction's verdict.
	StageValidate
	// StageCommit: the peer applied the block — the transaction's fate is
	// settled on that replica.
	StageCommit
	// StageRescue: post-order re-execution rescued the transaction
	// (recorded alongside StageCommit for rescued verdicts).
	StageRescue

	stageEnd // count sentinel; keep last
)

// NumStages is the number of defined transaction stages (array sizing).
const NumStages = int(stageEnd) - 1

// Block-keyed stages: the sub-stages of an orderer's cut, recorded back to
// back once per sealed block. Event.TxID holds the block number in decimal
// and Event.Block the stage's duration in ns; Merge skips them, Cuts reads
// them.
const (
	StageFormation Stage = 32 + iota // scheduler formation (Sharp: Algorithms 3 and 5, prune)
	StagePrecheck                    // endorsement precheck and shadow verdicts
	StageReexec                      // rescue re-execution (reexec.Run)
	StageFeedback                    // verdicts fed back to the scheduler (Sharp: CommitTail)
	StageCut                         // the whole cut: the four above, then the seal and shadow apply
	cutStageEnd                      // count sentinel; keep last
)

// NumCutStages is the number of block-keyed stages (array sizing).
const NumCutStages = int(cutStageEnd - StageFormation)

var stageNames = [...]string{
	StageSubmit:     "submit",
	StageOrder:      "order",
	StageRaftCommit: "raft-commit",
	StageSeal:       "seal",
	StageDeliver:    "deliver",
	StageValidate:   "validate",
	StageCommit:     "commit",
	StageRescue:     "rescue",
}

var cutStageNames = [NumCutStages]string{"formation", "precheck", "reexec", "feedback", "cut"}

func (s Stage) String() string {
	switch {
	case s >= 1 && s < stageEnd:
		return stageNames[s]
	case s.cut():
		return cutStageNames[s-StageFormation]
	}
	return "unknown"
}

// cut reports whether s is a block-keyed stage.
func (s Stage) cut() bool { return s >= StageFormation && s < cutStageEnd }

// Event is one recorded stage timestamp, decoded out of a ring.
type Event struct {
	// TxID is the transaction identifier (truncated to MaxTxIDLen bytes).
	TxID string
	// Stage is the pipeline boundary crossed.
	Stage Stage
	// Block is the sealed block number, 0 for pre-seal stages — except that
	// the order stamp of a transaction the orderer deferred to its block's
	// tail carries the scheduler's arrival code (a protocol.ValidationCode)
	// here, the stamp's detail, and a block-keyed stage its duration in ns.
	Block uint64
	// WallNS is the wall-clock timestamp (UnixNano) at record time.
	WallNS int64
	// Seq is the ring ticket: the node-local total order of recording.
	Seq uint64
}

// Dump is one node's drained ring: the payload of a MsgTraceDump.
type Dump struct {
	// Node and Role identify the origin ("peer0"/"peer", raft addr/"orderer").
	Node string
	Role string
	// Recorded is the lifetime event count; Recorded - len(Events) events
	// were overwritten by wraparound (or torn away mid-drain).
	Recorded uint64
	// Events holds the surviving window, oldest first (by Seq).
	Events []Event
}

// Tracer is one node's always-on stage recorder: a named ring plus the
// wall-clock seam. All methods are safe on a nil receiver (records are
// dropped), so pipeline call sites stay unconditional.
type Tracer struct {
	node string
	role string
	ring *Ring
}

// New builds a Tracer over a fresh ring. capacity <= 0 selects
// DefaultRingSize; other values round up to a power of two.
func New(node, role string, capacity int) *Tracer {
	return &Tracer{node: node, role: role, ring: NewRing(capacity)}
}

// Record notes that txID crossed stage (block 0 for pre-seal stages),
// stamped with the current wall clock. Zero-allocation, lock-free; safe
// from any goroutine and on a nil Tracer.
func (t *Tracer) Record(txID string, stage Stage, block uint64) {
	if t == nil {
		return
	}
	t.ring.RecordAt(txID, stage, block, nowNS())
}

// Now reads the tracer's clock (UnixNano) to open a span RecordSpan closes;
// 0 on a nil Tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return nowNS()
}

// RecordSpan records that block's stage (a block-keyed stage) ran from since
// — a Now or RecordSpan reading — until now, and returns now, so back-to-back
// stages chain. Zero-allocation like Record; a nil Tracer records nothing.
func (t *Tracer) RecordSpan(block uint64, stage Stage, since int64) int64 {
	if t == nil {
		return 0
	}
	now := nowNS()
	var key [20]byte
	t.ring.RecordAt(string(strconv.AppendUint(key[:0], block, 10)), stage, uint64(now-since), now)
	return now
}

// Dump drains a consistent snapshot of the ring.
func (t *Tracer) Dump() Dump {
	if t == nil {
		return Dump{}
	}
	return Dump{
		Node:     t.node,
		Role:     t.role,
		Recorded: t.ring.Recorded(),
		Events:   t.ring.Snapshot(),
	}
}

// nowNS is the package's single wall-clock read. Timestamps feed
// operator-facing timelines only — never sealed output or any consensus
// decision.
func nowNS() int64 {
	//sharp:allow wallclock stage timestamps are write-only telemetry drained by operators; nothing deterministic reads them back
	return time.Now().UnixNano()
}
