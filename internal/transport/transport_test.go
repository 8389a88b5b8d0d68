package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/wire"
)

// echoServer answers every frame with the same type and payload.
func echoServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", func(c *Conn) {
		for {
			typ, p, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(typ, p); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConnCallRoundTrip(t *testing.T) {
	s := echoServer(t)
	defer shut(t, s)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	typ, p, err := c.Call(wire.MsgAck, []byte("ping"))
	if err != nil || typ != wire.MsgAck || string(p) != "ping" {
		t.Fatalf("call: %v %v %q", typ, err, p)
	}
	// Concurrent calls serialize rather than interleave responses.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("m%d", i))
			_, p, err := c.Call(wire.MsgAck, msg)
			if err != nil || string(p) != string(msg) {
				t.Errorf("call %d: %q, %v", i, p, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentFramesArriveWholeAndInOrder sends frames of 0 B, 6 B (one
// header's worth), 4 KiB ± 1 (around the old per-connection buffer) and
// 1 MiB from 8 concurrent senders on one Conn. Every frame must arrive whole
// and each sender's frames in its order — over TCP, where a frame leaves in
// one writev, and over net.Pipe, which has no writev and hands the reader
// each write in pieces as small as its read.
func TestConcurrentFramesArriveWholeAndInOrder(t *testing.T) {
	sizes := []int{0, 6, 4095, 4096, 4097, 1 << 20}
	const senders, rounds = 8, 3
	// Frame k of sender s is sizes[k%len(sizes)] bytes of byte(s*31+k): the
	// type names the sender and the fill names the frame.
	run := func(t *testing.T, tx, rx *Conn) {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for k := 0; k < rounds*len(sizes); k++ {
					payload := bytes.Repeat([]byte{byte(s*31 + k)}, sizes[k%len(sizes)])
					if err := tx.Send(wire.MsgType(100+s), payload); err != nil {
						t.Errorf("sender %d frame %d: %v", s, k, err)
						return
					}
				}
			}(s)
		}
		next := make([]int, senders)
		for n := 0; n < senders*rounds*len(sizes); n++ {
			typ, payload, err := rx.Recv()
			if err != nil {
				t.Fatalf("frame %d: %v", n, err)
			}
			s := int(typ) - 100
			if s < 0 || s >= senders {
				t.Fatalf("frame %d: type %v names no sender", n, typ)
			}
			k := next[s]
			next[s]++
			want := bytes.Repeat([]byte{byte(s*31 + k)}, sizes[k%len(sizes)])
			if !bytes.Equal(payload, want) {
				t.Fatalf("sender %d frame %d: got %d bytes, want %d of %#x (torn or out of order)", s, k, len(payload), len(want), byte(s*31+k))
			}
		}
		wg.Wait()
	}
	t.Run("tcp", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			nc, _ := lis.Accept()
			accepted <- nc
		}()
		tx, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		nc := <-accepted
		if nc == nil {
			t.Fatal("accept failed")
		}
		rx := NewConn(nc)
		defer rx.Close()
		run(t, tx, rx)
	})
	t.Run("pipe", func(t *testing.T) {
		a, b := net.Pipe()
		tx, rx := NewConn(a), NewConn(b)
		defer tx.Close()
		defer rx.Close()
		run(t, tx, rx)
	})
	// A net.Pipe write of nothing waits for a read to take it, so a Call
	// whose empty request wrote its payload would wait on the echo, and the
	// echo on the Call.
	t.Run("pipe empty call", func(t *testing.T) {
		a, b := net.Pipe()
		client, server := NewConn(a), NewConn(b)
		defer client.Close()
		defer server.Close()
		go func() {
			for {
				typ, p, err := server.Recv()
				if err != nil || server.Send(typ, p) != nil {
					return
				}
			}
		}()
		done := make(chan error, 1)
		go func() {
			_, _, err := client.Call(wire.MsgStatusReq, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an empty request over net.Pipe never got its answer")
		}
	})
}

// TestCallAllocations pins the round trip's allocation count, client and
// echo server together: the two payloads Recv returns and nothing else. With
// per-connection bufio buffers it was 6 (each header escaped to the heap on
// both sides).
func TestCallAllocations(t *testing.T) {
	s := echoServer(t)
	defer shut(t, s)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := c.Call(wire.MsgAck, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Conn.Call allocates %.1f objects per round trip, want at most 2", allocs)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Recv() // no request sent: blocks until the server dies
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// The handler's exit takes the server's lock while Close joins it.
	var closeErr error
	if !within(t, 5*time.Second, "Server.Close", func() { closeErr = s.Close() }) {
		t.FailNow()
	}
	if closeErr != nil {
		t.Fatal(closeErr)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv returned nil after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
}

func TestDoubleCloseIdempotence(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub := &Subscriber{Addrs: []string{s.Addr()}, Height: func() uint64 { return 0 },
		Deliver: func(*ledger.Block, []byte) error { return nil }}
	sub.Start()
	for i := 0; i < 2; i++ {
		var err error
		if !within(t, 5*time.Second, "Server.Close", func() { err = s.Close() }) {
			t.Fatalf("server close #%d hung", i+1)
		}
		if err != nil {
			t.Fatalf("server close #%d: %v", i+1, err)
		}
		_ = c.Close()
		within(t, 5*time.Second, "Subscriber.Close", sub.Close)
	}
}

// TestMemAddresses pins the in-memory address rules: "mem:" alone binds a
// fresh name, a bound name cannot be bound again until its server closes, a
// dial to an unbound name fails at once (so DialRetry retries it like a
// refused port), and a call over a bound name is a real frame round trip.
func TestMemAddresses(t *testing.T) {
	echo := func(c *Conn) {
		for {
			typ, p, err := c.Recv()
			if err != nil || c.Send(typ, p) != nil {
				return
			}
		}
	}
	a, err := Listen("mem:", echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("mem:", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, b)
	if a.Addr() == b.Addr() || a.Addr() == "mem:" {
		t.Fatalf("fresh names %q and %q", a.Addr(), b.Addr())
	}
	if _, err := Listen(a.Addr(), echo); err == nil {
		t.Fatalf("%s bound twice", a.Addr())
	}
	c, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if typ, p, err := c.Call(wire.MsgAck, []byte("ping")); err != nil || typ != wire.MsgAck || string(p) != "ping" {
		t.Fatalf("call over %s: %v %q %v", a.Addr(), typ, p, err)
	}
	shut(t, a)
	if _, _, err := c.Recv(); err == nil {
		t.Fatal("a conn outlived its server")
	}
	if _, err := Dial(a.Addr()); err == nil {
		t.Fatalf("dialled %s after its server closed", a.Addr())
	}
	start := time.Now()
	if _, err := DialRetry("mem:nobody", time.Now().Add(100*time.Millisecond)); err == nil {
		t.Fatal("dialled an unbound name")
	}
	if time.Since(start) > time.Second {
		t.Fatal("DialRetry on an unbound name overran its deadline")
	}
	again, err := Listen(a.Addr(), echo)
	if err != nil {
		t.Fatalf("closing %s did not free it: %v", a.Addr(), err)
	}
	shut(t, again)
}

func TestDialRetryGivesUp(t *testing.T) {
	start := time.Now()
	// A port from the dynamic range with (almost certainly) no listener.
	if _, err := DialRetry("127.0.0.1:1", time.Now().Add(200*time.Millisecond)); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("DialRetry did not respect its timeout")
	}
}

// TestDialRetrySeesALateListenerPromptly pins the first-contact ramp: a
// listener that opens T after the first refused dial is connected to by about
// T + max(10 ms, T/8). Under the doubling ramp this test replaces, a listener
// opening at 100 ms was seen at 75-150 or at 155-310 ms — the two modes every
// cluster benchmark's set-up time fell into.
func TestDialRetrySeesALateListenerPromptly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 6; i++ {
		opensAfter := time.Duration(30+rng.Intn(370)) * time.Millisecond
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		_ = probe.Close()
		start := time.Now()
		opened := make(chan net.Listener, 1)
		go func() {
			time.Sleep(opensAfter)
			l, err := net.Listen("tcp", addr)
			if err != nil {
				t.Errorf("reopen %s: %v", addr, err)
			}
			opened <- l
		}()
		c, err := DialRetry(addr, start.Add(5*time.Second))
		seen := time.Since(start)
		if l := <-opened; l != nil {
			defer l.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
		// 25 ms of slack for the scheduler on a loaded machine; the old ramp
		// overshot a 300 ms opening by up to 300.
		allowed := opensAfter + max(10*time.Millisecond, opensAfter/8) + 25*time.Millisecond
		t.Logf("listener opened at %v, connected at %v (allowed %v)", opensAfter, seen.Round(time.Millisecond), allowed)
		if seen > allowed {
			t.Errorf("listener opened at %v but was seen only at %v (allowed %v)", opensAfter, seen, allowed)
		}
	}
}

// testChain seals n tiny blocks and returns them.
func testChain(t *testing.T, n int) []*ledger.Block {
	t.Helper()
	chain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]*ledger.Block, 0, n)
	for i := 0; i < n; i++ {
		tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("t%d", i)), Contract: "kv", Function: "put"}
		blk, err := chain.Seal([]*protocol.Transaction{tx}, []protocol.ValidationCode{protocol.Valid})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// TestSubscriberReconnectAndCatchUp drops the connection after every few
// delivered blocks; the subscriber must redial, resubscribe from its
// delivered height, and end up with every block exactly once, in order.
func TestSubscriberReconnectAndCatchUp(t *testing.T) {
	const total = 20
	blocks := testChain(t, total)
	const perConn = 3 // server hangs up after this many blocks
	srv, err := Listen("127.0.0.1:0", func(c *Conn) {
		typ, payload, err := c.Recv()
		if err != nil || typ != wire.MsgSubscribe {
			return
		}
		sub, err := wire.DecodeSubscribe(payload)
		if err != nil {
			return
		}
		sent := 0
		for next := sub.From + 1; next <= total && sent < perConn; next++ {
			if err := c.Send(wire.MsgBlock, wire.EncodeBlock(blocks[next-1])); err != nil {
				return
			}
			sent++
		}
		// Returning closes the connection mid-stream: the reconnect path is
		// the only way the subscriber can finish.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, srv)

	var mu sync.Mutex
	var got []uint64
	height := uint64(0)
	done := make(chan struct{})
	sub := &Subscriber{
		Addrs:  []string{srv.Addr()},
		Height: func() uint64 { mu.Lock(); defer mu.Unlock(); return height },
		Deliver: func(blk *ledger.Block, _ []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if blk.Header.Number <= height {
				return nil // duplicate after reconnect: skip
			}
			if blk.Header.Number != height+1 {
				return fmt.Errorf("gap: got %d after %d", blk.Header.Number, height)
			}
			height = blk.Header.Number
			got = append(got, blk.Header.Number)
			if height == total {
				close(done)
			}
			return nil
		},
		OnError: func(err error) { t.Errorf("subscriber error: %v", err) },
	}
	sub.Start()
	defer within(t, 5*time.Second, "Subscriber.Close", sub.Close)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		t.Fatalf("caught up only to %d/%d: %v", height, total, got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, n := range got {
		if n != uint64(i+1) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

// TestSubscriberSurvivesServerRestart takes the server away entirely and
// brings a new one up on the same address; the subscriber reconnects.
func TestSubscriberSurvivesServerRestart(t *testing.T) {
	blocks := testChain(t, 4)
	serveAll := func(upTo int) func(*Conn) {
		return func(c *Conn) {
			typ, payload, err := c.Recv()
			if err != nil || typ != wire.MsgSubscribe {
				return
			}
			sub, err := wire.DecodeSubscribe(payload)
			if err != nil {
				return
			}
			for next := sub.From + 1; next <= uint64(upTo); next++ {
				if err := c.Send(wire.MsgBlock, wire.EncodeBlock(blocks[next-1])); err != nil {
					return
				}
			}
			// Keep the conn open; nothing more will ever arrive.
			for {
				if _, _, err := c.Recv(); err != nil {
					return
				}
			}
		}
	}
	srv, err := Listen("127.0.0.1:0", serveAll(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var mu sync.Mutex
	height := uint64(0)
	done := make(chan struct{})
	sub := &Subscriber{
		Addrs:  []string{addr},
		Height: func() uint64 { mu.Lock(); defer mu.Unlock(); return height },
		Deliver: func(blk *ledger.Block, _ []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if blk.Header.Number > height {
				height = blk.Header.Number
				if height == 4 {
					close(done)
				}
			}
			return nil
		},
	}
	sub.Start()
	defer within(t, 5*time.Second, "Subscriber.Close", sub.Close)

	// Let the subscriber drain the first two blocks, then restart the
	// server on the same address with the full chain.
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return height == 2 })
	shut(t, srv)
	srv2, err := Listen(addr, serveAll(4))
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, srv2)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		t.Fatalf("stuck at height %d after server restart", height)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
