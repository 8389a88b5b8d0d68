// Package transport is the stdlib-only TCP layer of the process-per-node
// deployment mode: a framed connection type, a listener with graceful
// shutdown, dialers with bounded retry, and a reconnecting block-delivery
// subscriber.
//
// The package also defines the seam an ordering service (internal/orderer)
// hands sealed blocks through — Delivery: a peer's committer, a TCP fan-out,
// or a test's collector. The in-process network's channels to its peers are
// the loopback Delivery inside internal/fabric; a network fed from a socket
// and one fed from a local client share every line of orderer and committer
// code.
//
// Backpressure is structural: block delivery is driven by the *consumer*
// (the subscriber reads frames at its own pace, and the server-side stream
// walks the sealed chain rather than buffering), so a slow peer slows only
// its own stream — TCP flow control does the rest.
package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/wire"
)

// Delivery consumes sealed blocks in chain order. Implementations must be
// safe for use from one goroutine at a time and may block to exert
// backpressure; a returned error is fatal to the pipeline feeding it.
type Delivery interface {
	Deliver(blk *ledger.Block) error
}

// DeliveryFunc adapts a function to the Delivery interface.
type DeliveryFunc func(blk *ledger.Block) error

// Deliver implements Delivery.
func (f DeliveryFunc) Deliver(blk *ledger.Block) error { return f(blk) }

// ---------------------------------------------------------------------------
// Framed connection
// ---------------------------------------------------------------------------

// Conn is a framed, wire-versioned connection. Sends are serialized by an
// internal mutex; Recv must be called from a single goroutine (the usual
// request/response or stream-consumer patterns).
type Conn struct {
	nc        net.Conn
	r         *bufio.Reader
	wmu       sync.Mutex
	w         *bufio.Writer
	reqMu     sync.Mutex // serializes Call request/response pairs
	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps an established net.Conn.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// Send writes one frame and flushes it. Safe for concurrent use.
func (c *Conn) Send(t wire.MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.w, t, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads one frame.
func (c *Conn) Recv() (wire.MsgType, []byte, error) {
	return wire.ReadFrame(c.r)
}

// Call sends a request frame and reads the response frame. Concurrent Calls
// on the same connection are serialized, so responses cannot interleave.
func (c *Conn) Call(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	//sharp:allow lockacross Call exists to serialize request/response pairs on one connection; holding reqMu across the round-trip is that serialization, and Send/Recv carry their own deadlines
	if err := c.Send(t, payload); err != nil {
		return 0, nil, err
	}
	return c.Recv()
}

// Close tears the connection down. Idempotent; concurrent Recv/Send calls
// unblock with errors.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// RemoteAddr names the other end for diagnostics.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// SetDeadline bounds both read and write operations.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

// Server accepts framed connections and runs a handler per connection. Close
// is graceful and idempotent: the listener stops, every open connection is
// closed (unblocking handlers mid-Recv), and Close waits for all handler
// goroutines to return.
type Server struct {
	lis     net.Listener
	handler func(*Conn)

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool

	acceptWg  sync.WaitGroup
	handlerWg sync.WaitGroup
	closeOnce sync.Once
}

// Listen starts a TCP server on addr (use "127.0.0.1:0" for an ephemeral
// test port). The handler runs once per accepted connection; when it
// returns, the connection is closed and untracked.
func Listen(addr string, handler func(*Conn)) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, handler: handler, conns: map[*Conn]struct{}{}}
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			// Listener closed (shutdown) or a fatal accept error: either
			// way the accept loop ends; open connections drain on Close.
			return
		}
		conn := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.handlerWg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlerWg.Done()
			defer func() {
				_ = conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handler(conn)
		}()
	}
}

// Close shuts the server down: no new connections, all open connections
// closed, all handlers joined. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make([]*Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		_ = s.lis.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		s.acceptWg.Wait()
		s.handlerWg.Wait()
	})
	return nil
}

// ---------------------------------------------------------------------------
// Dialers
// ---------------------------------------------------------------------------

// DialTimeout is the per-attempt TCP connect timeout.
const DialTimeout = 3 * time.Second

// Dial makes a single connection attempt.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// DialRetry dials until it connects or the caller's deadline passes, paced by
// Retry — how nodes absorb cluster startup order (a peer may come up before
// its orderer) without a reconnect stampede when many nodes chase the same
// address.
func DialRetry(addr string, deadline time.Time) (*Conn, error) {
	var c *Conn
	err := Retry(deadline, func() (err error) {
		c, err = Dial(addr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("transport: deadline passed: %w", err)
	}
	return c, nil
}
