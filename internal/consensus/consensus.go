// Package consensus implements the totally-ordered broadcast that backs the
// ordering phase. Fabric outsources this to Kafka (Section 2.1); the Kafka
// type reproduces the properties the schedulers rely on — a single durable,
// totally ordered, replayable stream that every orderer consumes
// identically — using an in-process broker. RaftCore (raftcore.go) is the
// crash-fault-tolerant alternative: the pure replicated-log state machine
// that internal/transport.RaftService drives over TCP.
package consensus

import (
	"fmt"
	"sync"

	"fabricsharp/internal/protocol"
)

// Envelope is a payload submitted for ordering.
type Envelope struct {
	// Tx is the endorsed transaction; nil for control markers.
	Tx *protocol.Transaction
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
}

// Kafka is the in-process ordering service. It keeps its whole log in
// memory; the library network's one orderer.Service subscribes once, from
// offset zero, when the network starts.
type Kafka struct {
	mu     sync.Mutex
	cond   *sync.Cond
	log    []Envelope
	closed bool
}

// NewKafka creates the broker.
func NewKafka() *Kafka {
	k := &Kafka{}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// Submit implements Service.
func (k *Kafka) Submit(env Envelope) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return fmt.Errorf("consensus: service closed")
	}
	k.log = append(k.log, env)
	k.cond.Broadcast()
	return nil
}

// Subscribe implements Service. The returned cancel function detaches the
// subscriber; the channel is closed afterwards.
func (k *Kafka) Subscribe() (<-chan Sequenced, func()) {
	ch := make(chan Sequenced, 128)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(done)
			k.mu.Lock()
			k.cond.Broadcast()
			k.mu.Unlock()
		})
	}
	go func() {
		defer close(ch)
		next := uint64(0)
		for {
			k.mu.Lock()
			for int(next) >= len(k.log) && !k.closed {
				select {
				case <-done:
					k.mu.Unlock()
					return
				default:
				}
				k.cond.Wait()
			}
			if int(next) >= len(k.log) && k.closed {
				k.mu.Unlock()
				return
			}
			env := k.log[next]
			k.mu.Unlock()
			select {
			case ch <- Sequenced{Offset: next, Env: env}:
				next++
			case <-done:
				return
			}
		}
	}()
	return ch, cancel
}

// Close implements Service.
func (k *Kafka) Close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.closed = true
	k.cond.Broadcast()
}

// Len returns the current log length (tests, metrics).
func (k *Kafka) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.log)
}
