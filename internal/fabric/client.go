package fabric

import (
	"fmt"
	"sync/atomic"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/protocol"
)

// Client submits transactions to the network.
type Client struct {
	net      *Network
	id       *identity.Identity
	endorser uint64 // round-robin cursor over peers
}

// NewClient enrolls a client with the membership service.
func (n *Network) NewClient(name string) (*Client, error) {
	id, err := n.msp.Enroll(name, identity.RoleClient)
	if err != nil {
		return nil, err
	}
	return &Client{net: n, id: id}, nil
}

// nextTxID mints a network-unique transaction identifier.
func (n *Network) nextTxID(client string) protocol.TxID {
	n.seqMu.Lock()
	n.txSeq++
	seq := n.txSeq
	n.seqMu.Unlock()
	return protocol.TxID(fmt.Sprintf("%s-%06d", client, seq))
}

// nextPeer rotates over the peers: any one endorses (Section 5.1's policy),
// so clients spread the load.
func (c *Client) nextPeer() *Peer {
	return c.net.peers[atomic.AddUint64(&c.endorser, 1)%uint64(len(c.net.peers))]
}

// endorse runs the execution phase on peer and registers the waiter the
// transaction's result will be delivered to.
func (c *Client) endorse(peer *Peer, contract, function string, args []string) (*protocol.Transaction, chan TxResult, error) {
	tx := &protocol.Transaction{
		ID:       c.net.nextTxID(c.id.ID),
		ClientID: c.id.ID,
		Contract: contract,
		Function: function,
		Args:     args,
	}
	if _, err := peer.Endorse(tx); err != nil {
		return nil, nil, err
	}
	// Fill the key caches while the client still has exclusive access: every
	// orderer and validator downstream reads them.
	tx.RWSet.Precompute()
	ch := make(chan TxResult, 1)
	c.net.waitersMu.Lock()
	c.net.waiters[tx.ID] = ch
	c.net.waitersMu.Unlock()
	return tx, ch, nil
}

// submit sequences env; on failure it withdraws tx's waiter.
func (c *Client) submit(id protocol.TxID, env consensus.Envelope) error {
	env.SubmittedBy = c.id.ID
	err := c.net.ordering.Submit(env)
	if err != nil {
		c.net.waitersMu.Lock()
		delete(c.net.waiters, id)
		c.net.waitersMu.Unlock()
	}
	return err
}

// SubmitAsync runs the execution phase (endorsement on a round-robin peer)
// and broadcasts the endorsed transaction to the ordering service. It
// returns immediately with the transaction ID and a channel that yields the
// final TxResult.
func (c *Client) SubmitAsync(contract, function string, args ...string) (protocol.TxID, <-chan TxResult, error) {
	tx, ch, err := c.endorse(c.nextPeer(), contract, function, args)
	if err != nil {
		return "", nil, err
	}
	if err := c.submit(tx.ID, consensus.Envelope{Tx: tx}); err != nil {
		return "", nil, err
	}
	return tx.ID, ch, nil
}

// SubmitCommitted runs the Section 3.5 two-phase submission against
// reordering abuse: the transaction's digest is sequenced first; once its
// position is fixed, the payload is disclosed. With Options.HashCommitment
// enabled the orderers only act on the disclosure, in commitment order
// (orderer.CommitmentBroker).
func (c *Client) SubmitCommitted(contract, function string, args ...string) (TxResult, error) {
	if !c.net.opts.HashCommitment {
		return TxResult{}, fmt.Errorf("fabric: network does not run the hash-commitment protocol")
	}
	tx, ch, err := c.endorse(c.net.peers[0], contract, function, args)
	if err != nil {
		return TxResult{}, err
	}
	// Phase 1: publish only the digest.
	if err := c.submit(tx.ID, consensus.Envelope{Commitment: tx.DigestHex()}); err != nil {
		return TxResult{}, err
	}
	// Phase 2: disclose the payload (a separate consensus message).
	if err := c.submit(tx.ID, consensus.Envelope{Tx: tx, Disclosure: true}); err != nil {
		return TxResult{}, err
	}
	return c.net.awaitResult(tx.ID, ch)
}

// Submit is SubmitAsync plus waiting for the commit (or early abort).
func (c *Client) Submit(contract, function string, args ...string) (TxResult, error) {
	id, ch, err := c.SubmitAsync(contract, function, args...)
	if err != nil {
		return TxResult{}, err
	}
	return c.net.awaitResult(id, ch)
}

// MustSubmit is Submit that fails on abort — convenient in examples.
func (c *Client) MustSubmit(contract, function string, args ...string) (TxResult, error) {
	res, err := c.Submit(contract, function, args...)
	if err != nil {
		return res, err
	}
	if !res.Committed() {
		return res, fmt.Errorf("fabric: transaction %s aborted: %s", res.TxID, res.Code)
	}
	return res, nil
}

// Query evaluates a read-only invocation on one peer without ordering it —
// Fabric's query path. The result payload is whatever the contract set via
// SetResult.
func (c *Client) Query(contract, function string, args ...string) ([]byte, error) {
	cc, ok := c.net.registry.Get(contract)
	if !ok {
		return nil, fmt.Errorf("fabric: unknown contract %q", contract)
	}
	_, result, err := chaincode.SimulateFull(cc, function, args, c.nextPeer().state.LatestSnapshot())
	return result, err
}
