package node

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/wire"
)

// NetworkOptions configures a library network. All but Peers and Contracts
// are the ordering service's tunables, documented (with their defaults) on
// orderer.Options; Rescue and Genesis reach the peers too. Genesis is called
// once: a base is immutable, so the orderer and every peer share the one it
// builds.
type NetworkOptions struct {
	System         sched.System
	BlockSize      int
	BlockTimeout   time.Duration
	MaxSpan        uint64
	DedupHorizon   uint64
	Rescue         bool
	Genesis        func() (*statedb.Base, error)
	HashCommitment bool
	// Peers is the number of endorsing/validating peers (default 4, the
	// paper's setup).
	Peers int
	// Contracts to deploy; defaults to the scenario registry's full set.
	Contracts []chaincode.Contract
}

// Network is the library network: one standalone Orderer and N Peers, the
// nodes a process-per-node cluster runs, on in-memory "mem:" addresses in
// this process. A transaction takes the Section 2.1 lifecycle over wire
// frames: proposal to a peer, submit to the orderer, blocks streamed to
// every peer, its result from the orderer's result store.
type Network struct {
	opts    NetworkOptions
	msp     *identity.Service // refuses a client name already in use
	orderer *Orderer
	peers   []*Peer
	// inflight counts library submits not yet returned (WaitIdle).
	inflight atomic.Int64
}

// NewNetwork boots a library network: the orderer, then opts.Peers peers
// subscribed to it.
func NewNetwork(opts NetworkOptions) (*Network, error) {
	if opts.Peers == 0 {
		opts.Peers = 4
	}
	if opts.System == "" {
		opts.System = sched.SystemSharp
	}
	names := make([]string, opts.Peers)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i)
	}
	if opts.Genesis != nil {
		opts.Genesis = sync.OnceValues(opts.Genesis)
	}
	n := &Network{opts: opts}
	n.msp, _ = identity.DevMSP(names...)
	var err error
	n.orderer, err = StartOrderer(OrdererConfig{
		Options: orderer.Options{
			System: opts.System, BlockSize: opts.BlockSize, BlockTimeout: opts.BlockTimeout,
			MaxSpan: opts.MaxSpan, DedupHorizon: opts.DedupHorizon, Rescue: opts.Rescue,
			Genesis: opts.Genesis, HashCommitment: opts.HashCommitment,
		},
		Listen:    "mem:",
		PeerNames: names,
		Contracts: opts.Contracts,
	})
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		p, err := StartPeer(PeerConfig{
			Name: name, Listen: "mem:", OrdererAddrs: []string{n.orderer.Addr()},
			System: opts.System, PeerNames: names, Genesis: opts.Genesis, Rescue: opts.Rescue,
			Contracts: opts.Contracts,
			// All peers validate each block at once: share the cores out.
			ValidationWorkers: max(1, runtime.GOMAXPROCS(0)/opts.Peers),
		})
		if err != nil {
			n.Close()
			return nil, err
		}
		n.peers = append(n.peers, p)
	}
	return n, nil
}

// DialClient connects a wire client to the network's orderer and peers,
// outside any library client's pool: a test submits what it likes through
// it.
func (n *Network) DialClient(name string) (*Client, error) {
	addrs := make([]string, len(n.peers))
	for i, p := range n.peers {
		addrs[i] = p.Addr()
	}
	return DialClient(name, []string{n.orderer.Addr()}, addrs, time.Second)
}

// Err returns the first fatal error of the orderer or of a peer, nil while
// healthy.
func (n *Network) Err() error {
	err := n.orderer.Err()
	for _, p := range n.peers {
		err = cmp.Or(err, p.Err())
	}
	return err
}

// Close shuts the network down, the peers first (each ends its block stream
// once a commit in flight finishes), and so fails every submit in flight.
// Closing the servers ends every pooled client connection too. Idempotent.
func (n *Network) Close() {
	for _, p := range n.peers {
		p.Close()
	}
	n.orderer.Close()
}

// Peer returns peer i.
func (n *Network) Peer(i int) *Peer { return n.peers[i] }

// Orderer returns the ordering node.
func (n *Network) Orderer() *Orderer { return n.orderer }

// OrdererChain exposes the orderer's sealed chain (agreement checks).
func (n *Network) OrdererChain() *ledger.Chain { return n.orderer.Chain() }

// Height returns the lead peer's committed block height.
func (n *Network) Height() uint64 { return n.peers[0].State().Height() }

// WaitIdle blocks until no library submit is in flight and every peer stands
// on the orderer's tip, or the timeout elapses; it reports whether the
// network went idle. A fatal error returns false at once (see Err).
func (n *Network) WaitIdle(timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline) && n.Err() == nil; time.Sleep(5 * time.Millisecond) {
		idle := n.inflight.Load() == 0
		for _, p := range n.peers {
			height, _ := p.Tip().Height()
			idle = idle && height == uint64(n.orderer.Chain().Len())
		}
		if idle {
			return true
		}
	}
	return false
}

// NetworkClient is a library client. It submits through a pool of wire
// clients, so concurrent submits share blocks, and returns a result only
// once every peer holds it. Safe for concurrent use.
type NetworkClient struct {
	net  *Network
	name string
	// seq numbers the TxIDs of the whole pool; a name is enrolled once per
	// network, so TxIDs are unique in it.
	seq  atomic.Uint64
	rr   atomic.Uint64 // Query's peer rotation
	mu   sync.Mutex
	idle []*Client
}

// NewClient enrolls a client name; a name already in use is refused (two
// clients of one name would mint the same TxIDs).
func (n *Network) NewClient(name string) (*NetworkClient, error) {
	if _, err := n.msp.Enroll(name, identity.RoleClient); err != nil {
		return nil, err
	}
	return &NetworkClient{net: n, name: name}, nil
}

// Submit endorses the invocation on a peer (round-robin), submits it to the
// orderer, and returns its fate once every peer has committed its block, so
// a read on any peer sees the write.
func (c *NetworkClient) Submit(contract, function string, args ...string) (TxResult, error) {
	return c.submit(false, contract, function, args)
}

// SubmitCommitted is Submit under the Section 3.5 two-phase submission
// against reordering abuse (NetworkOptions.HashCommitment): the
// transaction's digest is sequenced first, the payload disclosed after.
func (c *NetworkClient) SubmitCommitted(contract, function string, args ...string) (TxResult, error) {
	if !c.net.opts.HashCommitment {
		return TxResult{}, errors.New("node: network does not run the hash-commitment protocol")
	}
	return c.submit(true, contract, function, args)
}

// MustSubmit is Submit that fails on abort — convenient in examples.
func (c *NetworkClient) MustSubmit(contract, function string, args ...string) (TxResult, error) {
	res, err := c.Submit(contract, function, args...)
	if err == nil && !res.Committed() {
		err = fmt.Errorf("node: transaction %s aborted: %s", res.TxID, res.Code)
	}
	return res, err
}

// Query evaluates a read-only invocation on one peer without ordering it —
// Fabric's query path, a local read.
func (c *NetworkClient) Query(contract, function string, args ...string) ([]byte, error) {
	peers := c.net.peers
	return peers[c.rr.Add(1)%uint64(len(peers))].Query(contract, function, args...)
}

// submit runs one transaction through a pooled wire client, then waits for
// every peer to commit its block. A pooled client gives up after one result
// wait (resultWaitBound), so a submit the orderer never answers fails within
// about that bound; one whose block a peer cannot commit, because the peer
// failed or closed, fails when the peer does.
func (c *NetworkClient) submit(committed bool, contract, function string, args []string) (TxResult, error) {
	c.net.inflight.Add(1)
	defer c.net.inflight.Add(-1)
	wc, err := c.get()
	if err != nil {
		return TxResult{}, err
	}
	var res wire.Result
	tx, err := wc.Endorse(contract, function, args...)
	switch {
	case err != nil:
	case committed:
		res, err = wc.SubmitCommitted(tx)
	default:
		res, err = wc.SubmitTx(tx)
	}
	c.mu.Lock()
	c.idle = append(c.idle, wc)
	c.mu.Unlock()
	for _, p := range c.net.peers {
		if err == nil && res.Block > 0 {
			err = p.waitCommitted(res.Block)
		}
	}
	if err != nil {
		return TxResult{}, err
	}
	return TxResult{TxID: protocol.TxID(res.TxID), Code: res.Code, Block: res.Block}, nil
}

// get takes an idle wire client from the pool, or dials a new one.
func (c *NetworkClient) get() (*Client, error) {
	c.mu.Lock()
	if k := len(c.idle); k > 0 {
		wc := c.idle[k-1]
		c.idle = c.idle[:k-1]
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	wc, err := c.net.DialClient(c.name)
	if err != nil {
		return nil, err
	}
	wc.seq, wc.SubmitTimeout = &c.seq, resultWaitBound
	return wc, nil
}
