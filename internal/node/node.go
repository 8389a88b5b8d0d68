// Package node is the EOV network's one assembly: the two pipeline types
// every deployment shares, plus servers. Orderer is an orderer.Service behind
// a server (result store, block streams, status, trace and profile
// handlers); Peer is the endorsing and validating peer — its state, ledger
// tip and store — behind one (proposal, status, trace and profile handlers),
// with a reconnecting block subscription that commits each block as it
// arrives (commit.Block); Client is the wire client that drives them.
// cmd/fabricnode runs one node per OS process over TCP; Network (network.go)
// runs one Orderer and N Peers in this process on in-memory "mem:" addresses
// — the library network — and NetworkClient is its concurrent client. Both
// send the same frames through the same code.
//
// The division of labour mirrors deployed Fabric:
//
//	client ──proposal──▶ peer (simulate + endorse)
//	client ──submit────▶ orderer (dedup, schedule, cut, seal verdicts; the
//	                     request parks by TxID and is answered at seal)
//	orderer ──blocks───▶ every peer (validate, assert sealed verdicts, commit)
//
// Identity in this mode comes from the deterministic dev MSP
// (identity.DevMSP): every process derives the cluster's well-known
// key pairs locally, so real ed25519 endorsements verify across process
// boundaries without a key-exchange protocol. See identity.Deterministic's
// caveats.
package node

import (
	"fmt"
	"sync"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
)

// TxResult reports a transaction's fate.
type TxResult struct {
	TxID  protocol.TxID
	Code  protocol.ValidationCode
	Block uint64 // 0 when dropped before the ledger
}

// Committed reports whether the transaction made it into the state —
// validated cleanly or rescued by post-order re-execution.
func (r TxResult) Committed() bool { return r.Code.Committed() }

// resultHorizon bounds the orderer's result map: results older than this
// many resolutions are forgotten (a client that slow has timed out anyway).
const resultHorizon = 1 << 17

// resultStore is a bounded TxID → result map with FIFO eviction, plus the
// handlers parked on results that have not resolved yet. It holds each
// TxID's own fate — the arrival abort or sealed verdict of its first
// submission — never the fate of a replay. The map key is the one copy of
// each TxID it keeps beside the eviction order.
type resultStore struct {
	mu      sync.Mutex
	results map[protocol.TxID]fate
	order   []protocol.TxID
	// waiters holds one buffered channel per parked handler; put claims
	// them under mu and hands each the result.
	waiters map[protocol.TxID][]chan TxResult
}

// fate is a TxResult without its TxID, the map key.
type fate struct {
	block uint64
	code  protocol.ValidationCode
}

func newResultStore() *resultStore {
	return &resultStore{
		results: map[protocol.TxID]fate{},
		waiters: map[protocol.TxID][]chan TxResult{},
	}
}

func (r *resultStore) put(res TxResult) {
	if res.Code == protocol.AbortDuplicate {
		// The orderer resolves a replayed TxID at arrival, which can be
		// before the original (pending in the block being assembled) gets
		// its sealed verdict — a client that resubmitted across a failover
		// races its own first submission exactly so. AbortDuplicate is the
		// replay's fate; the TxID's fate is the original's verdict, already
		// stored or still to come, and only that is ever published.
		return
	}
	r.mu.Lock()
	if _, dup := r.results[res.TxID]; !dup {
		r.order = append(r.order, res.TxID)
	}
	r.results[res.TxID] = fate{block: res.Block, code: res.Code}
	for len(r.order) > resultHorizon {
		delete(r.results, r.order[0])
		r.order = r.order[1:]
	}
	woken := r.waiters[res.TxID]
	delete(r.waiters, res.TxID)
	r.mu.Unlock()
	for _, ch := range woken {
		ch <- res // buffered, and this is its only send: never blocks
	}
}

// getOrPark returns id's result if it has resolved; otherwise it registers
// a waiter under the same lock as the lookup — a put cannot slip between
// the miss and the registration — and returns the channel put will deliver
// to. The caller must unpark a channel it stops waiting on.
func (r *resultStore) getOrPark(id protocol.TxID) (TxResult, <-chan TxResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.results[id]; ok {
		return TxResult{TxID: id, Code: f.code, Block: f.block}, nil
	}
	ch := make(chan TxResult, 1)
	r.waiters[id] = append(r.waiters[id], ch)
	return TxResult{}, ch
}

// unpark withdraws a waiter that gave up. It reports false when a put has
// already claimed the waiter: the result is on its way down ch and the
// caller must take it.
func (r *resultStore) unpark(id protocol.TxID, ch <-chan TxResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws := r.waiters[id]
	for i, w := range ws {
		if w != ch {
			continue
		}
		if len(ws) == 1 {
			delete(r.waiters, id)
		} else {
			r.waiters[id] = append(ws[:i], ws[i+1:]...)
		}
		return true
	}
	return false
}

// registry deploys contracts; none deploys the scenario registry's full set,
// so every replica can endorse every registered scenario and all replicas
// agree on the deployed set.
func registry(contracts []chaincode.Contract) *chaincode.Registry {
	if len(contracts) == 0 {
		contracts = scenario.AllContracts()
	}
	return chaincode.NewRegistry(contracts...)
}

func nonEmpty(names []string, what string) error {
	if len(names) == 0 {
		return fmt.Errorf("node: %s must not be empty", what)
	}
	return nil
}
