package sched

import (
	"fmt"

	"fabricsharp/internal/core"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// Sharp is the paper's scheduler: internal/core's fine-grained concurrency
// control wired into the Scheduler interface. Unserializable transactions
// are dropped before ordering (Algorithm 2) and the survivors are emitted in
// a serializable commit order at formation (Algorithm 3), so the validation
// phase runs no concurrency check at all.
type Sharp struct {
	mgr    *core.Manager
	byID   map[protocol.TxID]*protocol.Transaction
	timing Timing
}

// NewSharp returns the FabricSharp scheduler.
func NewSharp(opts Options) *Sharp {
	return &Sharp{
		mgr: core.NewManager(core.Options{
			MaxSpan:      opts.MaxSpan,
			CompactEvery: opts.CompactEvery,
		}),
		byID: map[protocol.TxID]*protocol.Transaction{},
	}
}

// System implements Scheduler.
func (s *Sharp) System() System { return SystemSharp }

// Manager exposes the underlying concurrency control (stats for the
// evaluation figures).
func (s *Sharp) Manager() *core.Manager { return s.mgr }

// OnArrival implements Scheduler: Algorithm 2.
func (s *Sharp) OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error) {
	w := startWatch()
	code, err := s.mgr.OnArrival(tx.ID, tx.SnapshotBlock, tx.RWSet.ReadKeys(), tx.RWSet.WriteKeys())
	s.timing.Arrivals++
	s.timing.ArrivalNS += w.elapsedNS()
	if err != nil {
		return 0, err
	}
	if code == protocol.Valid {
		s.byID[tx.ID] = tx
	}
	return code, nil
}

// OnBlockFormation implements Scheduler: Algorithm 3.
func (s *Sharp) OnBlockFormation() (FormationResult, error) {
	w := startWatch()
	ids, block := s.mgr.OnBlockFormation()
	res := FormationResult{Block: block, Ordered: make([]*protocol.Transaction, 0, len(ids))}
	for _, id := range ids {
		tx, ok := s.byID[id]
		if !ok {
			return FormationResult{}, fmt.Errorf("sched: sharp lost transaction %s", id)
		}
		delete(s.byID, id)
		res.Ordered = append(res.Ordered, tx)
	}
	if len(ids) > 0 {
		s.timing.Formations++
		s.timing.FormationNS += w.elapsedNS()
	}
	return res, nil
}

// OnBlockCommitted implements Scheduler: formation already fixed everything
// it ordered; what the orderer deferred and the rescue phase committed in
// the block's tail enters the committed history here (core.Manager.CommitTail).
func (s *Sharp) OnBlockCommitted(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode) {
	if block == s.mgr.NextBlock() {
		s.mgr.SealBlock() // a tail-only cut: formation ordered nothing
	}
	forEachRescued(block, txs, codes, func(tx *protocol.Transaction, at seqno.Seq) {
		s.mgr.CommitTail(tx.ID, at, tx.RWSet.ReadKeys(), tx.RWSet.WriteKeys())
	})
}

// NeedsMVCCValidation implements Scheduler: the ordering phase guarantees
// serializability (Figure 8: "No Concurrency Validation").
func (s *Sharp) NeedsMVCCValidation() bool { return false }

// PendingCount implements Scheduler.
func (s *Sharp) PendingCount() int { return s.mgr.PendingCount() }

// ResidentKeys implements Scheduler.
func (s *Sharp) ResidentKeys() int { return s.mgr.Keys().Len() }

// Timing implements Scheduler.
func (s *Sharp) Timing() Timing { return s.timing }
