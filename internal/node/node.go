// Package node is the process-per-node deployment of the EOV network: the
// two pipeline types every deployment shares, plus sockets. Orderer is an
// orderer.Service behind a TCP server (result store, block streams, status
// and trace handlers); Peer is a fabric.Peer behind one (proposal handler,
// reconnecting block subscription feeding its committer); Client is the
// wire client that drives them. cmd/fabricnode is a thin flag wrapper around
// this package; the in-process cluster tests boot the same types on
// 127.0.0.1 listeners, so the OS-process deployment and the test cluster
// exercise identical code.
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

	"fabricsharp/internal/fabric"
	"fabricsharp/internal/protocol"
)

// resultHorizon bounds the orderer's result map: results older than this
// many resolutions are forgotten (a client that slow has timed out anyway).
const resultHorizon = 1 << 17

// resultStore is a bounded TxID → result map with FIFO eviction, plus the
// handlers parked on results that have not resolved yet. It holds each
// TxID's own fate — the arrival abort or sealed verdict of its first
// submission — never the fate of a replay.
type resultStore struct {
	mu      sync.Mutex
	results map[protocol.TxID]fabric.TxResult
	order   []protocol.TxID
	// waiters holds one buffered channel per parked handler; put claims
	// them under mu and hands each the result.
	waiters map[protocol.TxID][]chan fabric.TxResult
}

func newResultStore() *resultStore {
	return &resultStore{
		results: map[protocol.TxID]fabric.TxResult{},
		waiters: map[protocol.TxID][]chan fabric.TxResult{},
	}
}

func (r *resultStore) put(res fabric.TxResult) {
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
	r.results[res.TxID] = res
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
func (r *resultStore) getOrPark(id protocol.TxID) (fabric.TxResult, <-chan fabric.TxResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.results[id]; ok {
		return res, nil
	}
	ch := make(chan fabric.TxResult, 1)
	r.waiters[id] = append(r.waiters[id], ch)
	return fabric.TxResult{}, ch
}

// unpark withdraws a waiter that gave up. It reports false when a put has
// already claimed the waiter: the result is on its way down ch and the
// caller must take it.
func (r *resultStore) unpark(id protocol.TxID, ch <-chan fabric.TxResult) bool {
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

// errOnce records a node's first fatal error.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func nonEmpty(names []string, what string) error {
	if len(names) == 0 {
		return fmt.Errorf("node: %s must not be empty", what)
	}
	return nil
}
