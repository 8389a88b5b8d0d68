package node

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// truncated drops the last byte of an encoding, which no decoder accepts.
func truncated(b []byte) []byte { return b[:len(b)-1] }

// TestOrdererRefusesMalformedFrames: a submit, a disclosure or a commitment
// that does not decode is answered with an error ack, and a subscribe that
// does not decode ends the connection without a block. The chain does not
// move, and the orderer still answers a status request.
func TestOrdererRefusesMalformedFrames(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemFabric, Peers: 1, BlockSize: 1, BlockTimeout: 20 * time.Millisecond})
	c, err := n.NewClient("c")
	if err != nil {
		t.Fatal(err)
	}
	if !within(t, 30*time.Second, "a submit", func() { _, err = c.MustSubmit("kv", "put", "k", "v") }) {
		t.FailNow()
	}
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, _ := n.OrdererChain().Status()
	tx := truncated(wire.EncodeTransaction(&protocol.Transaction{ID: "t", Contract: "kv", Function: "put"}))
	conn, err := transport.Dial(n.Orderer().Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, req := range []struct {
		typ     wire.MsgType
		payload []byte
	}{{wire.MsgSubmit, tx}, {wire.MsgDisclosure, tx}, {wire.MsgCommitment, []byte("not a digest")}} {
		typ, resp, err := conn.Call(req.typ, req.payload)
		if err != nil || typ != wire.MsgAck {
			t.Fatalf("a malformed %v: answer %v (%v), want %v", req.typ, typ, err, wire.MsgAck)
		}
		if ack, err := wire.DecodeAck(resp); err != nil || ack.OK || ack.Err == "" {
			t.Fatalf("a malformed %v: ack %+v (%v), want an error", req.typ, ack, err)
		}
	}
	sub, err := transport.Dial(n.Orderer().Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if typ, _, err := sub.Call(wire.MsgSubscribe, truncated(wire.EncodeSubscribe(wire.Subscribe{}))); err == nil {
		t.Fatalf("a malformed subscribe was answered with %v", typ)
	}
	if st, err := StatusAt(n.Orderer().Addr(), 5*time.Second); err != nil || st.Blocks != blocks {
		t.Fatalf("status after malformed frames: %+v (%v), want %d blocks", st, err, blocks)
	}
}

// TestPeerRefusesMalformedFrames: a proposal or a profile request that does
// not decode is refused as undecodable, on a connection that then still
// answers a status request.
func TestPeerRefusesMalformedFrames(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemFabric, Peers: 1})
	conn, err := transport.Dial(n.Peer(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	prop := wire.EncodeProposal(&wire.Proposal{ClientID: "c", TxID: "t", Contract: "kv", Function: "put", Args: []string{"k", "v"}})
	_, resp, err := conn.Call(wire.MsgProposal, truncated(prop))
	if err != nil {
		t.Fatal(err)
	}
	if pr, err := wire.DecodeProposalResp(resp); err != nil || pr.OK || !strings.Contains(pr.Err, "proposal:") {
		t.Fatalf("a malformed proposal: %+v (%v), want a decode refusal", pr, err)
	}
	_, resp, err = conn.Call(wire.MsgProfileReq, truncated(wire.EncodeProfileReq(wire.ProfileReq{Kind: "heap"})))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := wire.DecodeProfile(resp); err != nil || !strings.Contains(p.Err, "profile-req:") {
		t.Fatalf("a malformed profile request: %+v (%v), want a decode refusal", p, err)
	}
	typ, resp, err := conn.Call(wire.MsgStatusReq, nil)
	if err != nil || typ != wire.MsgStatus {
		t.Fatalf("status after malformed frames: %v (%v)", typ, err)
	}
	if st, err := wire.DecodeStatus(resp); err != nil || st.Blocks != 0 {
		t.Fatalf("status after malformed frames: %+v (%v), want no block", st, err)
	}
}

// TestClientsRefuseUndecodableAnswers: every client call fails with the
// decoder's error when a node answers it with a frame of the right type
// that does not decode.
func TestClientsRefuseUndecodableAnswers(t *testing.T) {
	var submitAnswer atomic.Int32
	answers := map[wire.MsgType]wire.MsgType{
		wire.MsgProposal:   wire.MsgProposalResp,
		wire.MsgStatusReq:  wire.MsgStatus,
		wire.MsgTraceReq:   wire.MsgTraceDump,
		wire.MsgProfileReq: wire.MsgProfile,
	}
	srv, err := transport.Listen("mem:", func(c *transport.Conn) {
		for {
			typ, _, err := c.Recv()
			if err != nil {
				return
			}
			answer := answers[typ]
			if typ == wire.MsgSubmit {
				answer = wire.MsgType(submitAnswer.Load())
			}
			if c.Send(answer, []byte{0xff}) != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer within(t, 5*time.Second, "Server.Close", func() { _ = srv.Close() })
	addr := srv.Addr()
	client, err := DialClient("c", []string{addr}, []string{addr}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SubmitTimeout = 200 * time.Millisecond
	refused := func(call, prefix string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), prefix) {
			t.Errorf("%s: %v, want the %q decoder's error", call, err, prefix)
		}
	}
	_, err = client.Endorse("kv", "put", "k", "v")
	refused("Endorse", "proposal-resp:", err)
	for _, answer := range []wire.MsgType{wire.MsgResult, wire.MsgAck} {
		submitAnswer.Store(int32(answer))
		_, err = client.SubmitTx(&protocol.Transaction{ID: "t"})
		refused("SubmitTx answered with "+answer.String(), answer.String()+":", err)
	}
	_, err = StatusAt(addr, dialTimeout)
	refused("StatusAt", "status:", err)
	_, err = TraceAt(addr, dialTimeout)
	refused("TraceAt", "trace-dump:", err)
	_, err = ProfileAt(addr, wire.ProfileReq{Kind: "heap"}, dialTimeout)
	refused("ProfileAt", "profile:", err)
}

// TestConcurrentSubmitsShareABlock: a library client's concurrent submits
// go out side by side and fill one block long before its timeout. Were a
// peer's wake-up lock held across a commit wait, the first submit's wait
// would stall the peer's commits and every submit behind it.
func TestConcurrentSubmitsShareABlock(t *testing.T) {
	const k = 8
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemFabric, Peers: 2, BlockSize: k, BlockTimeout: 5 * time.Second})
	c, err := n.NewClient("c")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, k)
	for i := range k {
		go func() {
			_, err := c.MustSubmit("kv", "put", string(rune('a'+i)), "v")
			errs <- err
		}()
	}
	deadline := time.After(3 * time.Second)
	for range k {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent submits did not share a block")
		}
	}
}

// TestSubmitWaitsForPeersOutsideThePoolLock: a submit waiting for a slow
// peer to commit its block holds no lock the next submit needs, so the next
// transaction still reaches the orderer and is sealed.
func TestSubmitWaitsForPeersOutsideThePoolLock(t *testing.T) {
	n := newTestNetwork(t, NetworkOptions{System: sched.SystemFabric, Peers: 2, BlockSize: 1, BlockTimeout: 20 * time.Millisecond})
	c, err := n.NewClient("c")
	if err != nil {
		t.Fatal(err)
	}
	slow := n.Peer(1)
	slow.committedMu.Lock() // the peer's commit waiters and its wake-up stall here
	defer slow.committedMu.Unlock()
	sealed := func(want int) bool {
		deadline := time.Now().Add(3 * time.Second)
		for n.OrdererChain().Len() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return n.OrdererChain().Len() >= want
	}
	base := n.OrdererChain().Len()
	for i, key := range []string{"a", "b"} {
		go func() { _, _ = c.Submit("kv", "put", key, "v") }()
		if !sealed(base + i + 1) {
			t.Fatalf("submit %d was not sealed while an earlier one waited on a slow peer", i+1)
		}
	}
}
