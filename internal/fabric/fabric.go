// Package fabric is the runnable, real-time in-process EOV blockchain: the
// library mode of this repository, and the home of the one peer assembly
// every deployment shares. It holds two types:
//
//   - Peer (peer.go): an endorsing + validating peer — state, ledger,
//     pipelined committer, Endorse (Algorithm 1). NewPeer builds it from a
//     PeerConfig whether the peer lives in this process or behind a socket
//     (internal/node).
//   - Network: an orderer.Service (the ordering role, internal/orderer) plus
//     N such peers, joined by a loopback delivery, a per-block commit
//     barrier and the client waiters — the full transaction lifecycle of
//     Section 2.1 over Go channels instead of gRPC.
//
// A minimal session:
//
//	net, _ := fabric.NewNetwork(fabric.Options{System: sched.SystemSharp})
//	defer net.Close()
//	client, _ := net.NewClient("alice")
//	res, _ := client.Submit("kv", "put", "greeting", "hello")
//	val, _ := client.Query("kv", "get", "greeting")
package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
)

// Options configures a network. System, BlockSize, BlockTimeout, MaxSpan,
// CompactEvery, DedupHorizon, Rescue and Genesis are the ordering service's
// tunables, documented (with their defaults) on orderer.Options;
// Rescue and Genesis reach the peers too.
type Options struct {
	System       sched.System
	BlockSize    int
	BlockTimeout time.Duration
	MaxSpan      uint64
	CompactEvery uint64
	DedupHorizon uint64
	// Rescue enables post-order speculative re-execution of conflict-aborted
	// transactions at every replica (the orderer's shadow and peer committers
	// alike): MVCC casualties, or under fabric# and focc-s the arrivals the
	// scheduler would abort, deferred to the block's tail. The rescued write
	// sets commit under the Rescued verdict.
	Rescue bool
	// Genesis, when non-empty, is the block-0 write set every replica
	// installs before the first block seals: peer state databases (NewPeer)
	// and the orderer's shadow state. Scenario-driven deployments fill it
	// from scenario.Scenario.GenesisWrites.
	Genesis []protocol.WriteItem
	// Peers is the number of endorsing/validating peers (default 4, the
	// paper's setup).
	Peers int
	// Contracts to deploy; defaults to the scenario registry's full set
	// (scenario.AllContracts), so a default network can endorse any
	// registered scenario.
	Contracts []chaincode.Contract
	// SubmitTimeout bounds Client.Submit waiting for a commit
	// (default 10s).
	SubmitTimeout time.Duration
	// HashCommitment enables the Section 3.5 two-phase submission: clients
	// sequence a digest commitment first and disclose the payload after;
	// orderers process disclosures in commitment order, which blinds
	// order-choosing adversaries to transaction contents (see
	// Client.SubmitCommitted).
	HashCommitment bool
	// Ordering, when set, injects an externally built consensus service —
	// typically a transport.RaftService joining this process to a Raft
	// ordering cluster over TCP — instead of the default in-process
	// consensus.Kafka. Every process consuming the same replicated stream
	// seals byte-identical blocks, which is what makes a multi-process
	// ordering cluster interchangeable with the in-process broker. The
	// network takes ownership: Close closes it.
	Ordering consensus.Service
	// ValidationWorkers caps each peer's intra-block validation parallelism
	// (default: GOMAXPROCS divided among the peers, since they all validate
	// a delivered block concurrently).
	ValidationWorkers int
}

func (o Options) withDefaults() Options {
	if o.Peers == 0 {
		o.Peers = 4
	}
	if len(o.Contracts) == 0 {
		o.Contracts = scenario.AllContracts()
	}
	if o.SubmitTimeout == 0 {
		o.SubmitTimeout = 10 * time.Second
	}
	return o
}

// ordering extracts the options the ordering service owns and defaults.
func (o Options) ordering() orderer.Options {
	return orderer.Options{
		System:       o.System,
		BlockSize:    o.BlockSize,
		BlockTimeout: o.BlockTimeout,
		MaxSpan:      o.MaxSpan,
		CompactEvery: o.CompactEvery,
		DedupHorizon: o.DedupHorizon,
		Rescue:       o.Rescue,
		Genesis:      o.Genesis,
	}
}

// TxResult reports a transaction's fate.
type TxResult struct {
	TxID  protocol.TxID
	Code  protocol.ValidationCode
	Block uint64 // 0 when dropped before the ledger
}

// Committed reports whether the transaction made it into the state —
// validated cleanly or rescued by post-order re-execution.
func (r TxResult) Committed() bool { return r.Code.Committed() }

// Network is a running blockchain network.
type Network struct {
	opts     Options
	msp      *identity.Service
	registry *chaincode.Registry
	ordering *orderer.Service
	peers    []*Peer

	waitersMu sync.Mutex
	waiters   map[protocol.TxID]chan TxResult
	txSeq     uint64
	seqMu     sync.Mutex

	// ackMu/pendingAcks implement the per-block commit barrier: a result
	// resolves once every peer has committed its block, with the lead
	// peer's validation codes as the authoritative verdicts.
	ackMu       sync.Mutex
	pendingAcks map[uint64]*blockAck
}

// blockAck tracks how many peers have committed a block and the lead peer's
// codes for it.
type blockAck struct {
	txs   []*protocol.Transaction
	codes []protocol.ValidationCode
	acks  int
}

// NewNetwork boots a network: one ordering service, opts.Peers peers, and
// the loopback delivery between them.
func NewNetwork(opts Options) (*Network, error) {
	opts = opts.withDefaults()
	consensusSvc := opts.Ordering
	if consensusSvc == nil {
		consensusSvc = consensus.NewKafka()
	}
	names := make([]string, opts.Peers)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i)
	}
	// The paper's endorsement policy: any single peer endorses
	// (Section 5.1), so any of the peers can spread the load.
	msp, policy := identity.DevMSP(names...)
	n := &Network{
		opts:        opts,
		msp:         msp,
		registry:    chaincode.NewRegistry(opts.Contracts...),
		waiters:     map[protocol.TxID]chan TxResult{},
		pendingAcks: map[uint64]*blockAck{},
	}
	ordering, err := orderer.New(orderer.Config{
		CoreConfig: orderer.CoreConfig{
			Options:        opts.ordering(),
			MSP:            msp,
			Policy:         policy,
			Registry:       n.registry,
			HashCommitment: opts.HashCommitment,
		},
		Ordering:   consensusSvc,
		Deliveries: []transport.Delivery{transport.DeliveryFunc(n.deliver)},
		OnAbort: func(id protocol.TxID, code protocol.ValidationCode) {
			n.resolve(TxResult{TxID: id, Code: code})
		},
	})
	if err != nil {
		consensusSvc.Close()
		return nil, err
	}
	n.ordering = ordering
	// All peers validate the same block concurrently; divide the cores among
	// them rather than oversubscribing by the peer count.
	workers := opts.ValidationWorkers
	if workers == 0 {
		if workers = runtime.GOMAXPROCS(0) / opts.Peers; workers < 1 {
			workers = 1
		}
	}
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			ID:       identity.Deterministic(name, identity.RolePeer),
			MSP:      msp,
			Policy:   policy,
			Registry: n.registry,
			// MVCC runs only for the systems whose ordering phase does not
			// already guarantee serializability (Figure 8).
			MVCC:    ordering.NeedsMVCCValidation(),
			Rescue:  opts.Rescue,
			Workers: workers,
			Genesis: opts.Genesis,
			OnCommit: func(blk *ledger.Block, codes []protocol.ValidationCode) {
				n.peerCommitted(i, blk, codes)
			},
			OnError: ordering.Fail,
		})
		if err != nil {
			n.Close()
			return nil, err
		}
		n.peers = append(n.peers, p)
	}
	ordering.Start()
	return n, nil
}

// deliver is the loopback delivery: it fans a sealed block out to every
// local peer's committer — the in-process implementation of the transport
// seam. It blocks only on a full committer queue (backpressure), never
// errors.
func (n *Network) deliver(blk *ledger.Block) error {
	for _, p := range n.peers {
		p.committer.Deliver(blk)
	}
	return nil
}

// peerCommitted is each committer's completion callback. Results resolve on
// the designated lead peer's (peer 0) verdicts, once every peer has
// committed the block — so a Submit that returns implies read-your-writes
// on any peer. The schedulers are NOT fed from here: commit feedback is
// derived deterministically by the orderer's shadow validator at cut time,
// so this barrier only settles client waiters.
func (n *Network) peerCommitted(peerIdx int, blk *ledger.Block, codes []protocol.ValidationCode) {
	num := blk.Header.Number
	n.ackMu.Lock()
	ack := n.pendingAcks[num]
	if ack == nil {
		ack = &blockAck{}
		n.pendingAcks[num] = ack
	}
	ack.acks++
	if peerIdx == 0 {
		ack.txs = blk.Transactions
		ack.codes = codes
	}
	complete := ack.acks == len(n.peers)
	if complete {
		delete(n.pendingAcks, num)
	}
	n.ackMu.Unlock()
	if !complete {
		return
	}
	for i, tx := range ack.txs {
		n.resolve(TxResult{TxID: tx.ID, Code: ack.codes[i], Block: num})
	}
}

// Err returns the first fatal pipeline error, nil while healthy.
func (n *Network) Err() error { return n.ordering.Err() }

// Close shuts the network down: the orderer stops consuming consensus, then
// the commit pipeline drains every delivered block.
func (n *Network) Close() {
	n.ordering.Close()
	for _, p := range n.peers {
		p.Close()
	}
}

// Peer returns peer i.
func (n *Network) Peer(i int) *Peer { return n.peers[i] }

// OrdererChain exposes the orderer's sealed chain (agreement checks).
func (n *Network) OrdererChain() *ledger.Chain { return n.ordering.Chain() }

// Height returns the lead peer's committed block height.
func (n *Network) Height() uint64 { return n.peers[0].state.Height() }

// WaitIdle blocks until every submitted transaction has been resolved and
// the commit pipeline has drained (every peer's delivery queue empty), or
// the timeout elapses; it reports whether the network went idle. A fatal
// pipeline error returns false immediately — the network has quiesced but
// outstanding transactions will never resolve (see Err).
func (n *Network) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Err() != nil {
			return false
		}
		n.waitersMu.Lock()
		idle := len(n.waiters) == 0
		n.waitersMu.Unlock()
		if idle && n.committersIdle() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// committersIdle reports whether every peer's committer has fully
// processed everything delivered to it.
func (n *Network) committersIdle() bool {
	for _, p := range n.peers {
		if !p.committer.Idle() {
			return false
		}
	}
	return true
}

// awaitResult waits for a submitted transaction's outcome: the commit
// barrier's result, the network's fatal error, or the submit timeout. Both
// submit paths (Submit, SubmitCommitted) share it so the subtle
// committed-result-wins-over-fatal race handling has exactly one copy.
func (n *Network) awaitResult(id protocol.TxID, ch <-chan TxResult) (TxResult, error) {
	deadline := time.Now().Add(n.opts.SubmitTimeout)
	select {
	case res := <-ch:
		return res, nil
	case <-n.ordering.Fatal():
		// The transaction may have resolved around the instant the fatal
		// signal fired; a durably committed result must win over the error.
		if res, ok := n.fatalResult(id, ch, deadline); ok {
			return res, nil
		}
		return TxResult{}, fmt.Errorf("fabric: transaction %s: network failed: %w", id, n.Err())
	case <-time.After(time.Until(deadline)):
		// Same handshake as the fatal path: a result already in flight
		// wins, and otherwise the waiter is removed so it cannot leak.
		if res, ok := n.claimWaiter(id, ch); ok {
			return res, nil
		}
		return TxResult{}, fmt.Errorf("fabric: transaction %s timed out", id)
	}
}

// fatalResult is the fatal-path tail of a submit. The pipeline keeps
// draining after a fatal error — blocks already delivered still commit on
// healthy peers — so first wait (up to SubmitTimeout, preserving Submit's
// latency contract) for the committers to go idle: a transaction in flight
// resolves normally rather than being reported failed after it durably
// commits. Then, resolve deletes the waiter under waitersMu before
// sending, so: absent from the map means a result send is in flight — wait
// for it and report success. Still present after the drain means no result
// is ever coming — remove the waiter so it cannot leak, and report
// failure.
func (n *Network) fatalResult(id protocol.TxID, ch <-chan TxResult, deadline time.Time) (TxResult, bool) {
	// Normally bounded by queue depth × commit latency: committers always
	// make progress (a failed one keeps consuming, applying nothing). The
	// deadline — the submit's original one, so the overall SubmitTimeout
	// contract holds — covers a wedged committer; there the timeout wins.
	for !n.committersIdle() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return n.claimWaiter(id, ch)
}

// claimWaiter settles a submit that is giving up: if resolve already
// claimed the waiter (absent from the map), a result send is guaranteed in
// flight — wait for it and report success. Otherwise remove the waiter so
// it cannot leak, and report that no result is coming.
func (n *Network) claimWaiter(id protocol.TxID, ch <-chan TxResult) (TxResult, bool) {
	n.waitersMu.Lock()
	_, pending := n.waiters[id]
	if pending {
		delete(n.waiters, id)
	}
	n.waitersMu.Unlock()
	if pending {
		return TxResult{}, false
	}
	return <-ch, true
}

// resolve delivers a transaction result to its waiter. Only the orderer's
// aborts and the commit barrier call it, so each transaction resolves once.
func (n *Network) resolve(res TxResult) {
	n.waitersMu.Lock()
	ch, ok := n.waiters[res.TxID]
	if ok {
		delete(n.waiters, res.TxID)
	}
	n.waitersMu.Unlock()
	if ok {
		ch <- res
	}
}
