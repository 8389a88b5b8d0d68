package transport

import (
	"fmt"
	"sync"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/wire"
)

// reconnectBackoffMax bounds the delay between subscriber redial attempts.
const reconnectBackoffMax = 2 * time.Second

// subscriberDialBudget bounds one DialRetry attempt at one address before
// the subscriber rotates to the next — short, because with a cluster of
// orderers the fastest path to fresh blocks is usually a different address,
// not patience with a dead one.
const subscriberDialBudget = 300 * time.Millisecond

// Subscriber maintains a block-delivery stream from the ordering service:
// dial, subscribe from the current height, deliver each received block in
// order, and — on any connection failure — reconnect and resubscribe from
// wherever delivery had progressed to. The server replays history from the
// requested height, so a subscriber that was down for a thousand blocks
// catches up through exactly the same code path as a live one.
//
// With multiple addresses the subscriber fails over: every replica of a
// Raft-ordered cluster seals the identical chain, so after losing one
// orderer the stream resumes from any other, still gap-free and
// byte-identical. Reconnect dialing reuses DialRetry's jittered backoff,
// with an outer jittered ramp between full rotations so a dead cluster is
// probed gently.
type Subscriber struct {
	// Addrs lists ordering-service delivery addresses, tried in rotation.
	Addrs []string
	// Height reports the highest block already delivered; resubscription
	// starts just above it.
	Height func() uint64
	// Deliver consumes blocks in order, each with the frame it was decoded
	// from. An error is fatal: the subscriber stops and reports it through
	// OnError.
	Deliver func(blk *ledger.Block, frame []byte) error
	// OnError, when set, observes the fatal delivery error.
	OnError func(error)
	// OnFailover, when set, is called each time the subscriber abandons one
	// address and connects to a different one (metrics hook).
	OnFailover func()
	// Dial, when non-nil, opens delivery connections in place of the default
	// DialRetry — the seam fault-injection tests wrap. The subscribe/stream
	// protocol has no retransmission: the one Subscribe frame the subscriber
	// sends is never re-sent, so a wrapper that can DROP frames leaves the
	// stream waiting forever on a subscription the server never saw.
	// Wrappers here must only duplicate or delay.
	Dial func(addr string) (FrameConn, error)

	done      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once

	mu   sync.Mutex
	conn FrameConn
}

// Start launches the subscriber loop. Idempotent.
func (s *Subscriber) Start() {
	s.startOnce.Do(func() {
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.run()
	})
}

// Close stops the loop and waits for it to exit. Idempotent; safe to call
// concurrently with a delivery in flight.
func (s *Subscriber) Close() {
	s.startOnce.Do(func() { s.done = make(chan struct{}) }) // Close before Start
	s.closeOnce.Do(func() {
		close(s.done)
		s.mu.Lock()
		if s.conn != nil {
			_ = s.conn.Close() // unblock a Recv in flight
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// closedNow reports whether Close has been requested.
func (s *Subscriber) closedNow() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *Subscriber) run() {
	defer s.wg.Done()
	bo := NewBackoff(10*time.Millisecond, reconnectBackoffMax, 0)
	next := 0      // rotation cursor into Addrs
	lastAddr := "" // address of the last established stream
	failures := 0  // consecutive addresses that failed to connect
	for !s.closedNow() {
		addr := s.Addrs[next%len(s.Addrs)]
		next++
		var conn FrameConn
		var err error
		if s.Dial != nil {
			conn, err = s.Dial(addr)
		} else {
			conn, err = DialRetry(addr, time.Now().Add(subscriberDialBudget))
		}
		if err != nil {
			failures++
			if failures%len(s.Addrs) == 0 {
				// Full rotation without a connection: the whole cluster is
				// unreachable — ramp up the pause between probes.
				select {
				case <-s.done:
					return
				case <-time.After(bo.Next()):
				}
			}
			continue
		}
		failures = 0
		bo.Reset()
		if lastAddr != "" && lastAddr != addr && s.OnFailover != nil {
			s.OnFailover()
		}
		lastAddr = addr
		s.mu.Lock()
		if s.closedNow() {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conn = conn
		s.mu.Unlock()
		if s.stream(conn, addr) {
			return // fatal delivery error; loop ends
		}
		_ = conn.Close()
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		// Resume preference: stay on the address that was just streaming
		// (it may have only hiccuped) before rotating onward.
		next--
	}
}

// stream subscribes and consumes blocks until the connection breaks
// (returns false: reconnect) or delivery fails fatally (returns true: stop).
func (s *Subscriber) stream(conn FrameConn, addr string) bool {
	if err := conn.Send(wire.MsgSubscribe, wire.EncodeSubscribe(wire.Subscribe{From: s.Height()})); err != nil {
		return false
	}
	for {
		t, payload, err := conn.Recv()
		if err != nil {
			return false // connection broke: reconnect and catch up
		}
		if t != wire.MsgBlock {
			return false // protocol confusion: tear down and resync
		}
		blk, err := wire.DecodeBlock(payload)
		if err != nil {
			return false // corrupt frame: drop the conn, resync from Height
		}
		if err := s.Deliver(blk, payload); err != nil {
			if s.OnError != nil {
				s.OnError(fmt.Errorf("transport: subscriber %s: %w", addr, err))
			}
			return true
		}
	}
}
