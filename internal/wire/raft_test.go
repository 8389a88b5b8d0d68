package wire

import (
	"reflect"
	"testing"

	"fabricsharp/internal/consensus"
)

func TestRaftAppendRoundTrip(t *testing.T) {
	tx := sampleTx(0)
	// Decoded transactions come back with the distinct-key caches filled;
	// precompute the original so DeepEqual compares like with like.
	tx.RWSet.Precompute()
	req := &consensus.AppendRequest{
		Term:         7,
		LeaderID:     "orderer2",
		PrevIndex:    41,
		PrevTerm:     6,
		LeaderCommit: 40,
		Entries: []consensus.LogEntry{
			{Term: 6, Env: consensus.Envelope{Tx: tx, SubmittedBy: "client1"}},
			{Term: 7, Env: consensus.Envelope{SubmittedBy: "orderer2"}}, // leader no-op
			{Term: 7, Env: consensus.Envelope{SubmittedBy: "orderer1", CutBlock: 3}},
			{Term: 7, Env: consensus.Envelope{SubmittedBy: "clientX", Commitment: "abc123"}},
			{Term: 7, Env: consensus.Envelope{Tx: tx, SubmittedBy: "clientX", Disclosure: true}},
		},
	}
	got, err := DecodeRaftAppend(EncodeRaftAppend(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}
	// Byte identity: re-encoding the decode reproduces the input.
	if string(EncodeRaftAppend(got)) != string(EncodeRaftAppend(req)) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestRaftAppendHeartbeatRoundTrip(t *testing.T) {
	req := &consensus.AppendRequest{Term: 3, LeaderID: "orderer1", PrevIndex: 9, PrevTerm: 3, LeaderCommit: 9}
	got, err := DecodeRaftAppend(EncodeRaftAppend(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("heartbeat mismatch: %+v != %+v", got, req)
	}
}

func TestRaftAppendRespRoundTrip(t *testing.T) {
	for _, resp := range []consensus.AppendResponse{
		{From: "orderer3", Term: 7, Success: true, MatchIndex: 42},
		{From: "orderer1", Term: 8, Success: false, MatchIndex: 12},
	} {
		got, err := DecodeRaftAppendResp(EncodeRaftAppendResp(resp))
		if err != nil {
			t.Fatal(err)
		}
		if got != resp {
			t.Fatalf("round trip mismatch: %+v != %+v", got, resp)
		}
	}
}

func TestRaftVoteRoundTrip(t *testing.T) {
	req := consensus.VoteRequest{Term: 9, CandidateID: "orderer2", LastIndex: 100, LastTerm: 8}
	got, err := DecodeRaftVote(EncodeRaftVote(req))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip mismatch: %+v != %+v", got, req)
	}
}

func TestRaftVoteRespRoundTrip(t *testing.T) {
	for _, resp := range []consensus.VoteResponse{
		{From: "orderer1", Term: 9, Granted: true},
		{From: "orderer3", Term: 10, Granted: false},
	} {
		got, err := DecodeRaftVoteResp(EncodeRaftVoteResp(resp))
		if err != nil {
			t.Fatal(err)
		}
		if got != resp {
			t.Fatalf("round trip mismatch: %+v != %+v", got, resp)
		}
	}
}

func TestRaftAppendDecodeRejectsTruncation(t *testing.T) {
	req := &consensus.AppendRequest{
		Term: 1, LeaderID: "a",
		Entries: []consensus.LogEntry{{Term: 1, Env: consensus.Envelope{Tx: sampleTx(0), SubmittedBy: "c"}}},
	}
	b := EncodeRaftAppend(req)
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := DecodeRaftAppend(b[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(b))
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeRaftAppend(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestRaftAppendDecodeBoundsHostileCount(t *testing.T) {
	// A frame claiming 2^32-1 entries with almost no payload must fail
	// cleanly, not allocate.
	dst := appendU64(nil, 1)
	dst = appendString(dst, "a")
	dst = appendU64(dst, 0)
	dst = appendU64(dst, 0)
	dst = appendU64(dst, 0)
	dst = appendU32(dst, 0xFFFFFFFF)
	if _, err := DecodeRaftAppend(dst); err == nil {
		t.Fatal("hostile entry count accepted")
	}
}

func TestAckRedirectRoundTrip(t *testing.T) {
	for _, a := range []Ack{
		{OK: true},
		{OK: false, Err: "boom"},
		{OK: false, NotLeader: true, Leader: "127.0.0.1:7050"},
		{OK: false, NotLeader: true}, // mid-election: no leader known
	} {
		got, err := DecodeAck(EncodeAck(a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("round trip mismatch: %+v != %+v", got, a)
		}
	}
}

func TestStatusRaftFieldsRoundTrip(t *testing.T) {
	s := Status{
		Role: "orderer", Name: "orderer2", Blocks: 12,
		TipHash: []byte{1, 2, 3}, StateHash: "",
		Term: 4, Leader: "127.0.0.1:7050", CommittedTx: 480,
	}
	got, err := DecodeStatus(EncodeStatus(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, s)
	}
}
