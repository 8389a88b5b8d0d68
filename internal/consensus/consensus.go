// Package consensus implements the totally-ordered broadcast that backs the
// ordering phase. Fabric outsources this to Kafka (Section 2.1); a Service
// has Kafka's contract — a single durable, totally ordered, replayable
// stream that every orderer consumes identically — which is the property
// the schedulers rely on. RaftCore (raftcore.go) is the one implementation:
// the pure replicated-log state machine that internal/transport.RaftService
// drives over the wire, for a cluster of orderers or a standalone orderer's
// group of one.
package consensus

import "fabricsharp/internal/protocol"

// Envelope is a payload submitted for ordering.
type Envelope struct {
	// Tx is the endorsed transaction; nil for control markers.
	Tx *protocol.Transaction
	// TxBytes is Tx's canonical encoding, the bytes it arrived in: the
	// client's submit payload on a leader, a slice of the AppendEntries on a
	// follower. A Raft log keeps these and not Tx, and a sealed chain keeps
	// the same slices. An envelope handed to a Service without them is
	// encoded once where it enters.
	TxBytes []byte
	// SubmittedBy identifies the submitting client or orderer (Orderer1 and
	// Orderer2 in Figure 2a may receive different transactions; the stream
	// they read back is identical).
	SubmittedBy string
	// CutBlock, when non-zero, marks a time-to-cut control message: the
	// submitting orderer's batch timeout fired while block CutBlock was
	// pending. Replicated orderers cut on the first marker for a block,
	// making timeout-driven block boundaries deterministic across replicas
	// (the Kafka-based Fabric TTC mechanism).
	CutBlock uint64
	// Commitment, when non-empty, is a phase-1 hash commitment of the
	// Section 3.5 anti-front-running protocol: the transaction's digest is
	// sequenced before its content is revealed.
	Commitment string
	// Disclosure marks a phase-2 payload reveal for a prior Commitment.
	Disclosure bool
}

// Sequenced is an envelope with its consensus position.
type Sequenced struct {
	Offset uint64
	Env    Envelope
}

// Service is a totally-ordered broadcast service.
type Service interface {
	// Submit appends an envelope to the stream.
	Submit(env Envelope) error
	// Subscribe returns a channel delivering the entire stream from offset
	// zero (replay plus live tail) — Kafka consumer semantics.
	Subscribe() (<-chan Sequenced, func())
	// Close stops the service; subscribers' channels are closed after the
	// last delivered offset.
	Close()
	// Err returns the failure that stopped the service, nil while healthy:
	// a stream that closed before Close did ends here, never in a gap.
	Err() error
}
