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

// NewClient enrolls a client with the membership service. An ordering-only
// network has no local peers to endorse, so its clients live in other
// processes and speak the wire protocol instead.
func (n *Network) NewClient(name string) (*Client, error) {
	if len(n.peers) == 0 {
		return nil, fmt.Errorf("fabric: network has no local peers to endorse; submit over the wire instead")
	}
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

// SubmitAsync runs the execution phase (endorsement on a round-robin peer)
// and broadcasts the endorsed transaction to the ordering service. It
// returns immediately with the transaction ID and a channel that yields the
// final TxResult.
func (c *Client) SubmitAsync(contract, function string, args ...string) (protocol.TxID, <-chan TxResult, error) {
	tx := &protocol.Transaction{
		ID:       c.net.nextTxID(c.id.ID),
		ClientID: c.id.ID,
		Contract: contract,
		Function: function,
		Args:     args,
	}
	// Execution phase: any one peer endorses (Section 5.1's policy);
	// clients rotate to spread load.
	peer := c.net.peers[atomic.AddUint64(&c.endorser, 1)%uint64(len(c.net.peers))]
	if _, err := Endorse(peer.state, peer.id, c.net.registry, tx); err != nil {
		return "", nil, err
	}
	// Fill the key caches while the client still has exclusive access: every
	// orderer and validator downstream reads them.
	tx.RWSet.Precompute()
	ch := make(chan TxResult, 1)
	c.net.waitersMu.Lock()
	c.net.waiters[tx.ID] = ch
	c.net.waitersMu.Unlock()
	if err := c.net.submission.Submit(consensus.Envelope{Tx: tx, SubmittedBy: c.id.ID}); err != nil {
		c.net.waitersMu.Lock()
		delete(c.net.waiters, tx.ID)
		c.net.waitersMu.Unlock()
		return "", nil, err
	}
	return tx.ID, ch, nil
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
	peer := c.net.peers[atomic.AddUint64(&c.endorser, 1)%uint64(len(c.net.peers))]
	cc, ok := c.net.registry.Get(contract)
	if !ok {
		return nil, fmt.Errorf("fabric: unknown contract %q", contract)
	}
	_, result, err := chaincode.SimulateFull(cc, function, args, peer.state.LatestSnapshot())
	return result, err
}
