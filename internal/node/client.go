package node

import (
	"fmt"
	"strings"
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

// Client drives a process-per-node cluster over TCP: proposals to peers
// (round-robin), submits to the ordering cluster, one parked result request
// per TxID. A Client is single-goroutine (use one per worker); Dial absorbs
// cluster startup with bounded retry.
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
	seq          uint64
	// SubmitTimeout bounds SubmitTx, WaitResult and OrdererStatus each,
	// retries across failovers included (default 30s).
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
	for i, a := range c.ordererAddrs {
		if a == addr {
			c.ordIdx = i
			return true
		}
	}
	return false
}

// nextTxID mints a client-unique transaction identifier.
func (c *Client) nextTxID() string {
	c.seq++
	return fmt.Sprintf("%s-%06d", c.name, c.seq)
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

// call is the one failover loop behind SubmitTx, WaitResult and
// OrdererStatus: reach an orderer through the address rotation, send the
// request, and hand the reply (already of type want) to handle — until handle
// is done or SubmitTimeout passes. A connection error rotates to the next
// orderer; handle returns again=false with the call's final error, or
// again=true with the reason after pointing the rotation at the next attempt
// (dropOrderer). Retries back off with jitter; what and id only name errors.
func (c *Client) call(what, id string, typ, want wire.MsgType, payload []byte, handle func(resp []byte) (again bool, err error)) error {
	deadline := time.Now().Add(c.SubmitTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 && !time.Now().Before(deadline) {
			return fmt.Errorf("node: %s: gave up after %s: %w", strings.TrimSpace(what+" "+id), c.SubmitTimeout, lastErr)
		}
		conn, err := c.ordererConn(deadline)
		if err != nil {
			lastErr = err
			continue
		}
		got, resp, err := conn.Call(typ, payload)
		switch {
		case err != nil:
			// Connection died (possibly the leader we were talking to):
			// rotate and retry.
			lastErr = fmt.Errorf("node: %s: %w", what, err)
			c.dropOrderer(true)
		case got != want:
			return fmt.Errorf("node: %s answered with %v", what, got)
		default:
			again, err := handle(resp)
			if !again {
				return err
			}
			lastErr = err
		}
		// One jittered backoff step, bounded by the deadline.
		if d := min(c.bo.Next(), time.Until(deadline)); d > 0 {
			time.Sleep(d)
		}
	}
}

// SubmitTx broadcasts an endorsed transaction to the ordering cluster,
// surviving leader failover: connection errors rotate to the next orderer
// (the transaction may or may not have been accepted; resubmission is
// dedup-safe), NotLeader acks follow the redirect hint. A nil return means
// the ordering service durably accepted the transaction (Raft clusters ack
// only after quorum commit).
func (c *Client) SubmitTx(tx *protocol.Transaction) error {
	return c.call("submit", string(tx.ID), wire.MsgSubmit, wire.MsgAck, wire.EncodeTransaction(tx), func(resp []byte) (bool, error) {
		ack, err := wire.DecodeAck(resp)
		switch {
		case err != nil:
			return false, err
		case ack.OK:
			return false, nil
		case ack.NotLeader:
			// Redirect: reconnect to the hinted leader (or rotate while the
			// cluster is mid-election).
			c.Redirects.Inc()
			followed := ack.Leader != "" && c.preferOrderer(ack.Leader)
			c.dropOrderer(!followed)
			return true, fmt.Errorf("node: submit: not leader (hint %q)", ack.Leader)
		default:
			return false, fmt.Errorf("node: submit rejected: %s", ack.Err)
		}
	})
}

// WaitResult asks the ordering cluster for a transaction's fate and blocks
// until it has one: the orderer answers at once if the transaction has
// resolved and otherwise parks the request until it does, so a transaction
// normally costs one request. The orderer gives up a parked request after a
// bound of its own and answers "not found"; that answer, like a broken
// connection, moves the client to the next orderer after a backoff step
// (every replica resolves identical results, so any of them can answer).
func (c *Client) WaitResult(txID string) (wire.Result, error) {
	var res wire.Result
	err := c.call("result", txID, wire.MsgResultPoll, wire.MsgResult, []byte(txID), func(resp []byte) (bool, error) {
		var err error
		if res, err = wire.DecodeResult(resp); err != nil || res.Found {
			return false, err
		}
		err = fmt.Errorf("node: result: %s gave up waiting", c.orderer.RemoteAddr())
		c.dropOrderer(true)
		return true, err
	})
	return res, err
}

// Submit is the full client lifecycle: endorse on a peer, submit to the
// ordering cluster, wait for the transaction to resolve (committed or
// aborted).
func (c *Client) Submit(contract, function string, args ...string) (wire.Result, error) {
	tx, err := c.Endorse(contract, function, args...)
	if err != nil {
		return wire.Result{}, err
	}
	if err := c.SubmitTx(tx); err != nil {
		return wire.Result{}, err
	}
	return c.WaitResult(string(tx.ID))
}

// OrdererStatus fetches the connected orderer's chain position, failing
// over on a dead connection.
func (c *Client) OrdererStatus() (wire.Status, error) {
	var st wire.Status
	err := c.call("status", "", wire.MsgStatusReq, wire.MsgStatus, nil, func(resp []byte) (bool, error) {
		var err error
		st, err = wire.DecodeStatus(resp)
		return false, err
	})
	return st, err
}

// PeerStatus fetches peer i's chain/state position.
func (c *Client) PeerStatus(i int) (wire.Status, error) {
	return status(c.peers[i])
}

// Peers returns how many peers the client is connected to.
func (c *Client) Peers() int { return len(c.peers) }

// StatusAt fetches a single node's status directly — any orderer or peer
// address — without the Client's failover machinery. Tools use it to probe
// cluster members individually (e.g. to find the Raft leader or compare
// replica tips during a chaos run).
func StatusAt(addr string, timeout time.Duration) (wire.Status, error) {
	conn, err := transport.DialRetry(addr, time.Now().Add(timeout))
	if err != nil {
		return wire.Status{}, err
	}
	defer conn.Close()
	return status(conn)
}

// statusAttemptBudget bounds one StatusAtRetry dial+call attempt so a
// connection a restarting node resets mid-call fails fast and retries
// instead of eating the whole deadline.
const statusAttemptBudget = 2 * time.Second

// StatusAtRetry is StatusAt hardened for probing a cluster mid-restart: a
// node that answers the dial but resets the in-flight status call (its
// listener is up before its pipeline) gets retried with jittered backoff
// until deadline instead of failing the whole probe on one refused
// connection.
func StatusAtRetry(addr string, deadline time.Time) (wire.Status, error) {
	bo := transport.NewBackoff(10*time.Millisecond, 500*time.Millisecond, 0)
	var st wire.Status
	err := transport.Retry(deadline, bo, func() error {
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

func status(conn *transport.Conn) (wire.Status, error) {
	typ, resp, err := conn.Call(wire.MsgStatusReq, nil)
	if err != nil {
		return wire.Status{}, fmt.Errorf("node: status: %w", err)
	}
	if typ != wire.MsgStatus {
		return wire.Status{}, fmt.Errorf("node: status answered with %v", typ)
	}
	return wire.DecodeStatus(resp)
}
