package transport

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/wire"
)

// These tests stall one receiver — a pipe nobody reads, a subscription
// nobody drains, a listener that stops reading — and require everything
// else to keep moving within a deadline. A lock held across the blocked
// send or wait would wedge the rest; within turns that hang into a failure
// in seconds instead of go test's timeout.

// within runs f and reports whether it returned within d, failing the test
// if it did not. The goroutine running f is left behind on failure.
func within(t *testing.T, d time.Duration, what string, f func()) bool {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		t.Errorf("%s did not return within %s", what, d)
		return false
	}
}

// shut closes a server, failing the test if Close has not returned within
// 5 s.
func shut(t *testing.T, s *Server) {
	t.Helper()
	within(t, 5*time.Second, "Server.Close", func() { _ = s.Close() })
}

// stallListener binds addr and reads and drops every frame sent to it until
// stall closes, then reads nothing more until the test ends: the sender on
// the other end of the pipe blocks in Send. It returns the number of
// connections that have stopped reading.
func stallListener(t *testing.T, addr string, stall <-chan struct{}) *atomic.Int32 {
	t.Helper()
	ended := make(chan struct{})
	var stopped atomic.Int32
	srv, err := Listen(addr, func(c *Conn) {
		for {
			select {
			case <-stall:
				stopped.Add(1)
				<-ended
				return
			default:
			}
			if _, _, err := c.Recv(); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shut(t, srv) })
	t.Cleanup(func() { close(ended) })
	return &stopped
}

// waitParked waits until a goroutine is parked in a select in fn, the
// function as a stack trace names it.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			state, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(state, "[select") && strings.HasPrefix(frames, fn+"(") {
				return true
			}
		}
		return false
	})
}

// submitAll submits n transaction envelopes from n goroutines and returns
// the first error.
func submitAll(s *RaftService, from, n int) error {
	errs := make(chan error, n)
	for i := from; i < from+n; i++ {
		go func() { errs <- s.Submit(txEnv(i)) }()
	}
	var first error
	for range n {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestMemDialHoldsNoRegistryLock: a dial waits for its listener's accept
// without holding the in-memory registry, so a listener slow to accept
// delays only the dials to it.
func TestMemDialHoldsNoRegistryLock(t *testing.T) {
	l, err := listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed := make(chan error, 1)
	go func() {
		c, err := dial(l.Addr().String())
		if err == nil {
			_ = c.Close()
		}
		dialed <- err
	}()
	waitParked(t, "fabricsharp/internal/transport.dial") // the dial now waits for an accept
	within(t, 2*time.Second, "Listen beside a waiting dial", func() {
		if s, err := Listen("mem:", func(*Conn) {}); err == nil {
			_ = s.Close()
		}
	})
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := <-dialed; err != nil {
		t.Fatal(err)
	}
}

// gateConn is a FrameConn whose first Send blocks until release closes.
type gateConn struct {
	FrameConn
	sends   atomic.Int32
	release chan struct{}
}

func (g *gateConn) Send(wire.MsgType, []byte) error {
	if g.sends.Add(1) == 1 {
		<-g.release
	}
	return nil
}

// TestFaultConnSendsConcurrently: a FaultConn draws its faults under its
// lock and transmits outside it, so a frame stuck in the link does not hold
// back the next one.
func TestFaultConnSendsConcurrently(t *testing.T) {
	g := &gateConn{release: make(chan struct{})}
	defer close(g.release)
	f := NewFaultConn(g, 1)
	go func() { _ = f.Send(wire.MsgAck, nil) }()
	waitFor(t, func() bool { return g.sends.Load() == 1 })
	within(t, 2*time.Second, "a Send beside a stuck one", func() { _ = f.Send(wire.MsgAck, nil) })
}

// TestSubscriberCloseEndsAStalledStream: Close returns while the stream
// waits on a server that sends nothing: neither the stream nor Close's wait
// for the loop runs under the subscriber's lock.
func TestSubscriberCloseEndsAStalledStream(t *testing.T) {
	subscribed := make(chan struct{})
	srv, err := Listen("mem:", func(c *Conn) {
		if _, _, err := c.Recv(); err != nil {
			return
		}
		close(subscribed)
		_, _, _ = c.Recv() // nothing more comes; returns once a side closes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, srv)
	sub := &Subscriber{Addrs: []string{srv.Addr()}, Height: func() uint64 { return 0 },
		Deliver: func(*ledger.Block, []byte) error { return nil }}
	sub.Start()
	select {
	case <-subscribed:
	case <-time.After(5 * time.Second):
		t.Fatal("the subscriber never subscribed")
	}
	within(t, 2*time.Second, "Subscriber.Close", sub.Close)
}

// TestSubscriberResyncsPastAnUndecodableFrame: a block frame that does not
// decode is never delivered; the subscriber drops the connection and
// resubscribes from its height.
func TestSubscriberResyncsPastAnUndecodableFrame(t *testing.T) {
	const total = 3
	blocks := testChain(t, total)
	var conns atomic.Int32
	srv, err := Listen("mem:", func(c *Conn) {
		typ, payload, err := c.Recv()
		if err != nil || typ != wire.MsgSubscribe {
			return
		}
		sub, err := wire.DecodeSubscribe(payload)
		if err != nil {
			return
		}
		if conns.Add(1) == 1 {
			_ = c.Send(wire.MsgBlock, []byte{0xff})
		} else {
			for next := sub.From + 1; next <= total; next++ {
				if c.Send(wire.MsgBlock, wire.EncodeBlock(blocks[next-1])) != nil {
					return
				}
			}
		}
		_, _, _ = c.Recv()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, srv)
	var height atomic.Uint64
	done := make(chan struct{})
	sub := &Subscriber{Addrs: []string{srv.Addr()}, Height: height.Load,
		Deliver: func(blk *ledger.Block, _ []byte) error {
			if blk == nil {
				t.Error("delivered a nil block")
				return nil
			}
			if height.Add(1) == total {
				close(done)
			}
			return nil
		}}
	sub.Start()
	defer within(t, 5*time.Second, "Subscriber.Close", sub.Close)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivered %d of %d blocks", height.Load(), total)
	}
}

// TestWireRaftUnreadSubscriptionDoesNotStallSubmit: a subscription whose
// consumer never reads fills its buffer and waits there, outside the
// member's lock, so a lone member keeps committing.
func TestWireRaftUnreadSubscriptionDoesNotStallSubmit(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	ch, cancel := s.Subscribe()
	defer cancel()
	within(t, 5*time.Second, "1 000 submits beside an unread subscription", func() {
		for i := range 1000 {
			if err := s.Submit(txEnv(i)); err != nil {
				t.Error(err)
				return
			}
			for i == cap(ch) && len(ch) < cap(ch) {
				time.Sleep(time.Millisecond) // the feeder fills the buffer and waits
			}
		}
	})
}

// TestWireRaftStalledFollowerDoesNotStallTheLeader: a follower that stops
// reading blocks only the leader's sender to it. The leader commits with the
// other member's acks and closes on time: it holds its lock neither across a
// send nor across a submit's wait, nor while Close joins its goroutines.
func TestWireRaftStalledFollowerDoesNotStallTheLeader(t *testing.T) {
	addrs := memAddrs(t, 3)
	stall := make(chan struct{})
	stopped := stallListener(t, addrs[2], stall)
	svcs := make([]*RaftService, 2)
	for i := range svcs {
		svcs[i] = startRaftMember(t, addrs, i, func(cfg *RaftConfig) { cfg.SubmitTimeout = 3 * time.Second })
	}
	lead := svcs[waitLeader(t, svcs, 10*time.Second)]
	if err := lead.Submit(txEnv(0)); err != nil {
		t.Fatal(err)
	}
	close(stall)
	// The leader's heartbeats reach the listener, which stops reading: its
	// next frame to the stalled follower blocks the sender.
	waitFor(t, func() bool { return stopped.Load() > 0 })
	if !within(t, 5*time.Second, "100 submits past a stalled follower", func() {
		if err := submitAll(lead, 1, 100); err != nil {
			t.Error(err)
		}
	}) {
		return
	}
	for _, s := range svcs {
		within(t, 5*time.Second, "RaftService.Close", s.Close)
	}
}

// TestWireRaftUnreadRepliesDoNotStallTheMember: a member answers a
// RequestVote and an AppendEntries outside its lock, so a requester that
// never reads the answers blocks only the connection it sent them on.
func TestWireRaftUnreadRepliesDoNotStallTheMember(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	for _, req := range []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{wire.MsgRaftVote, wire.EncodeRaftVote(consensus.VoteRequest{CandidateID: "stranger"})},
		{wire.MsgRaftAppend, wire.EncodeRaftAppend(&consensus.AppendRequest{LeaderID: "stranger"})},
	} {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// A pipe's write returns once the member has read the frame; its
		// answer then waits in the pipe.
		if !within(t, 5*time.Second, "sending a request", func() { _ = c.Send(req.typ, req.payload) }) {
			return
		}
	}
	within(t, 5*time.Second, "100 submits beside unread answers", func() {
		if err := submitAll(s, 0, 100); err != nil {
			t.Error(err)
		}
	})
}

// TestWireRaftCandidateWithStalledPeersKeepsTicking: a candidate whose peers
// accept and never read re-sends its RequestVote every tick into senders
// that are stuck; a full vote queue drops the re-send rather than blocking
// the tick under the member's lock.
func TestWireRaftCandidateWithStalledPeersKeepsTicking(t *testing.T) {
	addrs := memAddrs(t, 3)
	stall := make(chan struct{})
	close(stall)
	stallListener(t, addrs[1], stall)
	stallListener(t, addrs[2], stall)
	s := startRaftMember(t, addrs, 0, func(cfg *RaftConfig) { cfg.Heartbeat = 5 * time.Millisecond })
	// The ticks' re-sends fill each vote queue behind its stuck sender.
	waitFor(t, func() bool {
		for _, p := range s.peers {
			if len(p.votes) < cap(p.votes) {
				return false
			}
		}
		return true
	})
	// Every tick from here on queues a vote into full queues. The next
	// election, a tick's doing, shows that the ticks go on.
	var term, now uint64
	within(t, 2*time.Second, "Term", func() { term = s.Term() })
	for deadline := time.Now().Add(5 * time.Second); now <= term; time.Sleep(5 * time.Millisecond) {
		if !within(t, 2*time.Second, "Term", func() { now = s.Term() }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still in term %d after 5 s", term)
		}
	}
}

// TestWireRaftHandleRefusesMalformedFrames: a member drops a frame of each
// Raft message type that it cannot decode: it answers nothing, changes no
// state, and answers the next request on the same connection.
func TestWireRaftHandleRefusesMalformedFrames(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	term, commit := s.Term(), s.CommitIndex()
	probe := wire.EncodeRaftAppend(&consensus.AppendRequest{LeaderID: "stranger"})
	for _, bad := range []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{wire.MsgRaftVote, wire.EncodeRaftVote(consensus.VoteRequest{Term: term + 1, CandidateID: "stranger"})},
		{wire.MsgRaftVoteResp, wire.EncodeRaftVoteResp(consensus.VoteResponse{From: "stranger", Term: term, Granted: true})},
		{wire.MsgRaftAppend, wire.EncodeRaftAppend(&consensus.AppendRequest{Term: term + 1, LeaderID: "stranger"})},
		{wire.MsgRaftAppendResp, wire.EncodeRaftAppendResp(consensus.AppendResponse{From: "stranger", Term: term, Success: true, MatchIndex: 9})},
	} {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if c.Send(bad.typ, bad.payload[:len(bad.payload)-1]) == nil {
				_ = c.Send(wire.MsgRaftAppend, probe)
			}
		}()
		typ, _, err := c.Recv()
		_ = c.Close()
		if err != nil || typ != wire.MsgRaftAppendResp {
			t.Fatalf("a truncated %v: first answer %v (%v), want the probe's %v", bad.typ, typ, err, wire.MsgRaftAppendResp)
		}
		if s.Term() != term || !s.IsLeader() || s.CommitIndex() != commit {
			t.Fatalf("a truncated %v moved the member to term %d, commit %d", bad.typ, s.Term(), s.CommitIndex())
		}
	}
	if err := s.Submit(txEnv(0)); err != nil {
		t.Fatal(err)
	}
}
