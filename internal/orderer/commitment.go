package orderer

import (
	"fmt"

	"fabricsharp/internal/protocol"
)

// This file implements the Section 3.5 mitigation against reordering abuse.
//
// The attack: the consensus leader (or any party controlling proposal order)
// observes an undesirable transaction TxnT reading and writing a record
// against snapshot N, forges TxnT' touching the same record, and sequences
// TxnT' first. TxnT' passes the reorderability test; TxnT then forms an
// unreorderable cycle with it (c-rw one way, anti-rw the other) and every
// honest orderer aborts TxnT — censorship through the public reordering
// algorithm.
//
// The mitigation: clients first publish only the transaction's digest; once
// consensus has fixed the digest's position, the client discloses the
// payload. Orderers process disclosed transactions in the order their
// digests were sequenced, so an adversary must commit to its own
// transactions before seeing anyone else's read/write sets. (It also stops
// clients from mutating content after sequencing: the disclosure must match
// the committed digest.)

// CommitmentBroker sequences hash commitments and releases payloads to the
// scheduler in commitment order. It sits between the consensus stream and a
// scheduler; a Core owns one when CoreConfig.HashCommitment is set, and like
// the Core it is not goroutine-safe.
type CommitmentBroker struct {
	order     []string                         // digests in consensus order
	disclosed map[string]*protocol.Transaction // digest -> payload
	released  int                              // prefix of order already released
}

// NewCommitmentBroker returns an empty broker.
func NewCommitmentBroker() *CommitmentBroker {
	return &CommitmentBroker{disclosed: map[string]*protocol.Transaction{}}
}

// Commit records a sequenced digest commitment.
func (b *CommitmentBroker) Commit(digest string) {
	b.order = append(b.order, digest)
}

// Disclose delivers a payload for a previously committed digest. It returns
// the transactions that became releasable, in commitment order, and an error
// if the payload does not hash to the claimed digest (a client mutating its
// transaction after sequencing).
func (b *CommitmentBroker) Disclose(tx *protocol.Transaction) ([]*protocol.Transaction, error) {
	digest := tx.DigestHex()
	found := false
	for _, d := range b.order[b.released:] {
		if d == digest {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("orderer: disclosure without commitment (digest %.12s...)", digest)
	}
	if _, dup := b.disclosed[digest]; dup {
		return nil, fmt.Errorf("orderer: duplicate disclosure (digest %.12s...)", digest)
	}
	b.disclosed[digest] = tx
	// Release the longest disclosed prefix.
	var out []*protocol.Transaction
	for b.released < len(b.order) {
		next, ok := b.disclosed[b.order[b.released]]
		if !ok {
			break
		}
		delete(b.disclosed, b.order[b.released])
		b.released++
		out = append(out, next)
	}
	return out, nil
}

// PendingCommitments returns how many sequenced digests still await
// disclosure.
func (b *CommitmentBroker) PendingCommitments() int {
	return len(b.order) - b.released
}
