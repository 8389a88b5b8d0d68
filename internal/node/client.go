package node

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// clientDialBudget bounds one reconnect attempt at one orderer address
// before the client rotates to the next — failover should move on quickly,
// not wait out a dead address.
const clientDialBudget = 500 * time.Millisecond

// Client drives a cluster over the wire: proposals to peers
// (round-robin), one submit per transaction to the ordering cluster, answered
// with the transaction's fate. A Client is single-goroutine (use one per
// worker); Dial absorbs cluster startup with bounded retry.
//
// Submission survives orderer failover: a connection failure rotates to the
// next orderer address with jittered exponential backoff, and a NotLeader
// ack follows the redirect hint to the current leader. Retried submissions
// reuse the transaction ID, so the orderer's dedup horizon absorbs any
// duplicate that slips through (at most one verdict per ID is ever sealed).
type Client struct {
	name         string
	ordererAddrs []string
	ordIdx       int
	orderer      *transport.Conn
	peers        []*transport.Conn
	bo           *transport.Backoff
	rr           uint64
	// seq numbers the TxIDs this client mints; the clients of one library
	// client's pool share it.
	seq *atomic.Uint64
	// SubmitTimeout bounds SubmitTx, retries across failovers included
	// (default 30s).
	SubmitTimeout time.Duration
	// Redirects counts NotLeader redirects this client followed.
	Redirects metrics.Counter
}

// DialClient connects to at least one orderer of the given cluster and
// every peer, retrying for up to dialTimeout.
func DialClient(name string, ordererAddrs, peerAddrs []string, dialTimeout time.Duration) (*Client, error) {
	if err := nonEmpty(ordererAddrs, "orderer addresses"); err != nil {
		return nil, err
	}
	if err := nonEmpty(peerAddrs, "peer addresses"); err != nil {
		return nil, err
	}
	c := &Client{
		name:          name,
		ordererAddrs:  ordererAddrs,
		bo:            transport.NewBackoff(10*time.Millisecond, time.Second, 0),
		seq:           new(atomic.Uint64),
		SubmitTimeout: 30 * time.Second,
	}
	deadline := time.Now().Add(dialTimeout)
	if _, err := c.ordererConn(deadline); err != nil {
		return nil, err
	}
	for _, addr := range peerAddrs {
		conn, err := transport.DialRetry(addr, deadline)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.peers = append(c.peers, conn)
	}
	return c, nil
}

// Close tears down every connection. Idempotent.
func (c *Client) Close() {
	if c.orderer != nil {
		_ = c.orderer.Close()
	}
	for _, p := range c.peers {
		_ = p.Close()
	}
}

// ordererConn returns the live orderer connection, dialing through the
// address rotation until one answers or the deadline passes.
func (c *Client) ordererConn(deadline time.Time) (*transport.Conn, error) {
	if c.orderer != nil {
		return c.orderer, nil
	}
	var lastErr error
	for {
		addr := c.ordererAddrs[c.ordIdx%len(c.ordererAddrs)]
		budget := time.Now().Add(clientDialBudget)
		if budget.After(deadline) {
			budget = deadline
		}
		conn, err := transport.DialRetry(addr, budget)
		if err == nil {
			c.orderer = conn
			c.bo.Reset()
			return conn, nil
		}
		lastErr = err
		c.ordIdx++
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("node: no reachable orderer in %v: %w", c.ordererAddrs, lastErr)
		}
	}
}

// dropOrderer abandons the current connection; rotate moves to the next
// address (connection errors), while a redirect picks the hinted leader
// instead.
func (c *Client) dropOrderer(rotate bool) {
	if c.orderer != nil {
		_ = c.orderer.Close()
		c.orderer = nil
	}
	if rotate {
		c.ordIdx++
	}
}

// preferOrderer points the rotation at addr if it is a known cluster
// address (a NotLeader redirect hint); unknown hints fall back to rotation.
func (c *Client) preferOrderer(addr string) bool {
	i := slices.Index(c.ordererAddrs, addr)
	if i >= 0 {
		c.ordIdx = i
	}
	return i >= 0
}

// nextTxID mints a client-unique transaction identifier.
func (c *Client) nextTxID() string {
	return fmt.Sprintf("%s-%06d", c.name, c.seq.Add(1))
}

// Endorse runs the execution phase on the next peer (round-robin): the peer
// simulates the invocation and signs the effects.
func (c *Client) Endorse(contract, function string, args ...string) (*protocol.Transaction, error) {
	peer := c.peers[c.rr%uint64(len(c.peers))]
	c.rr++
	payload := wire.EncodeProposal(&wire.Proposal{
		ClientID: c.name,
		TxID:     c.nextTxID(),
		Contract: contract,
		Function: function,
		Args:     args,
	})
	typ, resp, err := peer.Call(wire.MsgProposal, payload)
	if err != nil {
		return nil, fmt.Errorf("node: proposal: %w", err)
	}
	if typ != wire.MsgProposalResp {
		return nil, fmt.Errorf("node: proposal answered with %v", typ)
	}
	pr, err := wire.DecodeProposalResp(resp)
	if err != nil {
		return nil, fmt.Errorf("node: endorsed transaction: %w", err)
	}
	if !pr.OK {
		return nil, fmt.Errorf("node: endorsement refused: %s", pr.Err)
	}
	return pr.Tx, nil
}

// SubmitTx sends an endorsed transaction to the ordering cluster and returns
// its fate, in one request: the orderer answers an accepted submit (a Raft
// cluster accepts after quorum commit) with the transaction's result once it
// has resolved. A NotLeader ack follows the redirect hint; a broken
// connection, or an orderer that gave up waiting (Found false), moves to the
// next orderer and sends the same transaction again, with jittered backoff,
// until SubmitTimeout. If the first copy was accepted the second is dropped
// as a duplicate, and the answer is the first one's fate either way.
func (c *Client) SubmitTx(tx *protocol.Transaction) (wire.Result, error) {
	return c.send(wire.MsgSubmit, wire.EncodeTransaction(tx), tx.ID)
}

// SubmitCommitted is SubmitTx under the Section 3.5 hash-commitment
// protocol: tx's digest is sequenced first, and once the orderer has
// accepted it the payload is disclosed and answered as SubmitTx's is. Only
// an orderer running Options.HashCommitment holds the disclosure to its
// commitment's position. A commitment re-sent after a lost ack is sequenced
// twice, and the broker then waits on the second copy's disclosure.
func (c *Client) SubmitCommitted(tx *protocol.Transaction) (wire.Result, error) {
	if _, err := c.send(wire.MsgCommitment, []byte(tx.DigestHex()), tx.ID); err != nil {
		return wire.Result{}, err
	}
	return c.send(wire.MsgDisclosure, wire.EncodeTransaction(tx), tx.ID)
}

// send is the retry loop of SubmitTx and SubmitCommitted: one request of
// type typ for transaction id, answered by a result or, for a commitment,
// an OK ack.
func (c *Client) send(typ wire.MsgType, payload []byte, id protocol.TxID) (wire.Result, error) {
	deadline := time.Now().Add(c.SubmitTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 && !time.Now().Before(deadline) {
			return wire.Result{}, fmt.Errorf("node: %v %s: gave up after %s: %w", typ, id, c.SubmitTimeout, lastErr)
		}
		conn, err := c.ordererConn(deadline)
		if err != nil {
			lastErr = err
			continue
		}
		rtyp, resp, err := conn.Call(typ, payload)
		switch {
		case err != nil:
			// Connection died (possibly the leader we were talking to).
			lastErr = fmt.Errorf("node: %v: %w", typ, err)
			c.dropOrderer(true)
		case rtyp == wire.MsgResult:
			res, err := wire.DecodeResult(resp)
			if err != nil || res.Found {
				return res, err
			}
			lastErr = fmt.Errorf("node: %v: %s gave up waiting", typ, conn.RemoteAddr())
			c.dropOrderer(true)
		case rtyp == wire.MsgAck:
			ack, err := wire.DecodeAck(resp)
			if err != nil || ack.OK {
				return wire.Result{}, err
			}
			if !ack.NotLeader {
				return wire.Result{}, fmt.Errorf("node: %v rejected: %s", typ, ack.Err)
			}
			// Redirect: reconnect to the hinted leader (or rotate while the
			// cluster is mid-election).
			c.Redirects.Inc()
			followed := ack.Leader != "" && c.preferOrderer(ack.Leader)
			c.dropOrderer(!followed)
			lastErr = fmt.Errorf("node: %v: not leader (hint %q)", typ, ack.Leader)
		default:
			return wire.Result{}, fmt.Errorf("node: %v answered with %v", typ, rtyp)
		}
		// One jittered backoff step, bounded by the deadline.
		if d := min(c.bo.Next(), time.Until(deadline)); d > 0 {
			time.Sleep(d)
		}
	}
}

// Submit is the full client lifecycle: endorse on a peer, then submit to the
// ordering cluster and receive the transaction's fate (committed or
// aborted).
func (c *Client) Submit(contract, function string, args ...string) (wire.Result, error) {
	tx, err := c.Endorse(contract, function, args...)
	if err != nil {
		return wire.Result{}, err
	}
	return c.SubmitTx(tx)
}

// StatusAt fetches a single node's status directly — any orderer or peer
// address — without the Client's failover machinery. Tools use it to probe
// cluster members individually (e.g. to find the Raft leader or compare
// replica tips during a chaos run).
func StatusAt(addr string, timeout time.Duration) (wire.Status, error) {
	resp, err := askNode(addr, timeout, wire.MsgStatusReq, nil, wire.MsgStatus)
	if err != nil {
		return wire.Status{}, err
	}
	return wire.DecodeStatus(resp)
}

// askNode is the one-shot probe behind StatusAt, TraceAt and ProfileAt: dial
// addr within timeout, send one request, and return the answer's payload if
// it has the type want.
func askNode(addr string, timeout time.Duration, req wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	conn, err := transport.DialRetry(addr, time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	typ, resp, err := conn.Call(req, payload)
	if err != nil {
		return nil, fmt.Errorf("node: %v to %s: %w", req, addr, err)
	}
	if typ != want {
		return nil, fmt.Errorf("node: %s answered %v with %v", addr, req, typ)
	}
	return resp, nil
}

// statusAttemptBudget bounds one StatusAtRetry dial+call attempt so a
// connection a restarting node resets mid-call fails fast and retries
// instead of eating the whole deadline.
const statusAttemptBudget = 2 * time.Second

// StatusAtRetry is StatusAt hardened for probing a cluster mid-restart: a
// node that answers the dial but resets the in-flight status call (its
// listener is up before its pipeline) gets retried at transport.Retry's pace
// until deadline instead of failing the whole probe on one refused
// connection.
func StatusAtRetry(addr string, deadline time.Time) (wire.Status, error) {
	var st wire.Status
	err := transport.Retry(deadline, func() error {
		budget := time.Until(deadline)
		if budget > statusAttemptBudget {
			budget = statusAttemptBudget
		}
		var err error
		st, err = StatusAt(addr, budget)
		return err
	})
	if err != nil {
		return wire.Status{}, err
	}
	return st, nil
}
