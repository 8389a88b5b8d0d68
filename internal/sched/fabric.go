package sched

import (
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
)

// Fabric is the vanilla baseline: the orderer batches transactions in FIFO
// consensus order and the validation phase aborts every transaction whose
// readset went stale (Strong Serializability by Theorem 1 — and the
// over-aborting the paper sets out to eliminate).
type Fabric struct {
	pending   []*protocol.Transaction
	nextBlock uint64
	timing    Timing
}

// NewFabric returns the vanilla scheduler.
func NewFabric() *Fabric { return &Fabric{nextBlock: 1} }

// System implements Scheduler.
func (f *Fabric) System() System { return SystemFabric }

// OnArrival implements Scheduler: everything is admitted.
func (f *Fabric) OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error) {
	w := metrics.StartWatch()
	f.pending = append(f.pending, tx)
	f.timing.Arrivals++
	f.timing.ArrivalNS += w.ElapsedNS()
	return protocol.Valid, nil
}

// OnBlockFormation implements Scheduler: FIFO, no reordering.
func (f *Fabric) OnBlockFormation() (FormationResult, error) {
	if len(f.pending) == 0 {
		return FormationResult{Block: f.nextBlock}, nil
	}
	w := metrics.StartWatch()
	res := FormationResult{Block: f.nextBlock, Ordered: f.pending}
	f.pending = nil
	f.nextBlock++
	f.timing.Formations++
	f.timing.FormationNS += w.ElapsedNS()
	return res, nil
}

// OnBlockCommitted implements Scheduler (no feedback needed).
func (f *Fabric) OnBlockCommitted(uint64, []*protocol.Transaction, []protocol.ValidationCode) {}

// NeedsMVCCValidation implements Scheduler.
func (f *Fabric) NeedsMVCCValidation() bool { return true }

// PendingCount implements Scheduler.
func (f *Fabric) PendingCount() int { return len(f.pending) }

// ResidentKeys implements Scheduler: vanilla Fabric keeps no key state.
func (f *Fabric) ResidentKeys() int { return 0 }

// Timing implements Scheduler.
func (f *Fabric) Timing() Timing { return f.timing }
