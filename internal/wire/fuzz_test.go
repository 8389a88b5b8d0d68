package wire

import (
	"bytes"
	"strings"
	"testing"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/trace"
)

// The fuzz targets pin the two codec-level safety properties the transport
// relies on, one target per message type a socket can deliver: decoding
// arbitrary bytes never panics, and any input the decoder accepts is in
// canonical form (re-encoding reproduces it exactly). CI runs a short
// -fuzztime smoke of every target `go test -list '^Fuzz'` names; the corpus
// accumulates locally.

// fuzzCodec runs the two properties over one decoder/encoder pair. Each seed
// is added whole and cut in half, so the corpus starts with both an accepted
// and a truncated frame.
func fuzzCodec[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte, seeds ...[]byte) {
	f.Add([]byte{})
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decode(b)
		if err != nil {
			return
		}
		if re := encode(v); !bytes.Equal(re, b) {
			t.Fatalf("decode∘encode not identity:\n in  %x\n out %x", b, re)
		}
	})
}

func FuzzDecodeRaftAppend(f *testing.F) {
	fuzzCodec(f, DecodeRaftAppend, EncodeRaftAppend,
		EncodeRaftAppend(&consensus.AppendRequest{Term: 2, LeaderID: "a"}), // heartbeat
		EncodeRaftAppend(&consensus.AppendRequest{
			Term: 3, LeaderID: "127.0.0.1:7053", PrevIndex: 4, PrevTerm: 2, LeaderCommit: 4,
			Entries: []consensus.LogEntry{
				{Term: 3}, // leader no-op
				{Term: 3, Env: consensus.Envelope{Tx: fuzzSampleTx(), SubmittedBy: "c"}},
				{Term: 3, Env: consensus.Envelope{SubmittedBy: "orderer0", CutBlock: 9}},
				{Term: 3, Env: consensus.Envelope{SubmittedBy: "c", Commitment: "digest", Disclosure: true}},
			},
		}),
		// A leader's log entry: the transaction spliced in as the bytes it
		// arrived in.
		EncodeRaftAppend(&consensus.AppendRequest{
			Term: 4, LeaderID: "orderer1", PrevIndex: 8, PrevTerm: 4, LeaderCommit: 8,
			Entries: []consensus.LogEntry{{Term: 4, Env: consensus.Envelope{TxBytes: EncodeTransaction(fuzzSampleTx()), SubmittedBy: "c"}}},
		}))
}

func FuzzDecodeRaftAppendResp(f *testing.F) {
	fuzzCodec(f, DecodeRaftAppendResp, EncodeRaftAppendResp,
		EncodeRaftAppendResp(consensus.AppendResponse{From: "b", Term: 3, Success: true, MatchIndex: 8}),
		EncodeRaftAppendResp(consensus.AppendResponse{From: "c", Term: 4, MatchIndex: 2}))
}

func FuzzDecodeRaftVote(f *testing.F) {
	fuzzCodec(f, DecodeRaftVote, EncodeRaftVote,
		EncodeRaftVote(consensus.VoteRequest{Term: 5, CandidateID: "b", LastIndex: 8, LastTerm: 3}))
}

func FuzzDecodeRaftVoteResp(f *testing.F) {
	fuzzCodec(f, DecodeRaftVoteResp, EncodeRaftVoteResp,
		EncodeRaftVoteResp(consensus.VoteResponse{From: "c", Term: 5, Granted: true}))
}

func FuzzDecodeTraceReq(f *testing.F) {
	fuzzCodec(f, DecodeTraceReq, EncodeTraceReq, []byte{0})
}

func FuzzDecodeTraceDump(f *testing.F) {
	fuzzCodec(f, DecodeTraceDump, EncodeTraceDump,
		EncodeTraceDump(trace.Dump{Node: "peer0", Role: "peer"}),
		EncodeTraceDump(trace.Dump{Node: "orderer0", Role: "orderer", Recorded: 9, Events: []trace.Event{
			{TxID: "fuzz-1", Stage: 1, WallNS: 1700000000000000000, Seq: 7},
			{TxID: "fuzz-1", Stage: 3, Block: 2, WallNS: -1, Seq: 8},
		}}))
}

func FuzzDecodeProfileReq(f *testing.F) {
	fuzzCodec(f, DecodeProfileReq, EncodeProfileReq,
		EncodeProfileReq(ProfileReq{Kind: "cpu", Seconds: 10}),
		EncodeProfileReq(ProfileReq{Kind: "heap"}))
}

func FuzzDecodeProfile(f *testing.F) {
	fuzzCodec(f, DecodeProfile, EncodeProfile,
		EncodeProfile(&Profile{Data: []byte{0x1f, 0x8b, 8, 0}}),
		EncodeProfile(&Profile{Err: "cpu profiling already in use"}))
}

func FuzzDecodeProposal(f *testing.F) {
	fuzzCodec(f, DecodeProposal, EncodeProposal,
		EncodeProposal(&Proposal{ClientID: "c", TxID: "fuzz-1", Contract: "kv", Function: "noop"}),
		EncodeProposal(&Proposal{ClientID: "c1", TxID: "fuzz-pay", Contract: "smallbank", Function: "send_payment", Args: []string{"alice", "bob", "25"}}))
}

func FuzzDecodeProposalResp(f *testing.F) {
	fuzzCodec(f, DecodeProposalResp, EncodeProposalResp,
		EncodeProposalResp(&ProposalResp{OK: true, Tx: fuzzSampleTx()}),
		EncodeProposalResp(&ProposalResp{Err: "fabric: unknown contract \"nosuch\""}))
}

func FuzzDecodeAck(f *testing.F) {
	fuzzCodec(f, DecodeAck, EncodeAck,
		EncodeAck(Ack{OK: true}),
		EncodeAck(Ack{Err: "not leader", NotLeader: true, Leader: "127.0.0.1:7050"}))
}

func FuzzDecodeCommitment(f *testing.F) {
	digest := fuzzSampleTx().DigestHex()
	fuzzCodec(f, DecodeCommitment, func(d string) []byte { return []byte(d) },
		[]byte(digest), []byte(strings.ToUpper(digest)))
}

func FuzzDecodeResult(f *testing.F) {
	fuzzCodec(f, DecodeResult, EncodeResult,
		EncodeResult(Result{Found: true, TxID: "fuzz-1", Code: protocol.Rescued, Block: 12}),
		EncodeResult(Result{TxID: "fuzz-2"}))
}

func FuzzDecodeSubscribe(f *testing.F) {
	fuzzCodec(f, DecodeSubscribe, EncodeSubscribe, EncodeSubscribe(Subscribe{From: 41}))
}

func FuzzDecodeStatus(f *testing.F) {
	fuzzCodec(f, DecodeStatus, EncodeStatus,
		EncodeStatus(Status{Role: "peer", Name: "peer0", Blocks: 9, TipHash: []byte{1, 2}, StateHash: "ab12", CommittedTx: 400}),
		EncodeStatus(Status{Role: "orderer", Name: "127.0.0.1:7053", Blocks: 9, TipHash: []byte{1, 2}, Term: 3, Leader: "127.0.0.1:7050", CommittedTx: 400}))
}

func FuzzDecodeTransaction(f *testing.F) {
	seeds := [][]byte{EncodeTransaction(&protocol.Transaction{}), EncodeTransaction(fuzzSampleTx())}
	for _, tx := range fuzzInvocationTxs() {
		seeds = append(seeds, EncodeTransaction(tx))
	}
	fuzzCodec(f, DecodeTransaction, EncodeTransaction, seeds...)
}

func FuzzDecodeBlock(f *testing.F) {
	fuzzCodec(f, DecodeBlock, EncodeBlock,
		EncodeBlock(&ledger.Block{}),
		EncodeBlock(&ledger.Block{
			Header:       ledger.Header{Number: 3, PrevHash: []byte{1}, DataHash: []byte{2}},
			Transactions: []*protocol.Transaction{fuzzSampleTx(), {}},
			Validation:   []protocol.ValidationCode{protocol.Valid, protocol.AbortCycle},
		}),
		EncodeBlock(&ledger.Block{
			Header:       ledger.Header{Number: 9, PrevHash: []byte{7}, DataHash: []byte{8}},
			Transactions: fuzzInvocationTxs(),
			Validation:   []protocol.ValidationCode{protocol.Rescued, protocol.MVCCConflict},
			RescueDigest: bytes.Repeat([]byte{0xab}, 32),
		}))
}

// fuzzInvocationTxs seeds invocation-bearing shapes: a SmallBank transfer
// with full args (what the rescue phase re-executes) and an invocation with
// no args at all.
func fuzzInvocationTxs() []*protocol.Transaction {
	return []*protocol.Transaction{
		{
			ID:            "fuzz-pay",
			ClientID:      "c1",
			Contract:      "smallbank",
			Function:      "send_payment",
			Args:          []string{"alice", "bob", "25"},
			SnapshotBlock: 12,
			RWSet: protocol.RWSet{
				Reads: []protocol.ReadItem{
					{Key: "checking:alice", Version: protocol.Version{Block: 3, Pos: 1}},
					{Key: "checking:bob", Version: protocol.Version{Block: 7, Pos: 4}},
				},
				Writes: []protocol.WriteItem{
					{Key: "checking:alice", Value: []byte("75")},
					{Key: "checking:bob", Value: []byte("125")},
				},
			},
		},
		{ID: "fuzz-noargs", Contract: "kv", Function: "noop"},
	}
}

func fuzzSampleTx() *protocol.Transaction {
	return &protocol.Transaction{
		ID:            "fuzz-1",
		ClientID:      "c",
		Contract:      "kv",
		Function:      "rmw",
		Args:          []string{"k", "1"},
		SnapshotBlock: 5,
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "k"}},
			Writes: []protocol.WriteItem{{Key: "k", Value: []byte("2")}, {Key: "d", Delete: true}},
		},
		Endorsements: []protocol.Endorsement{{EndorserID: "peer0", Signature: []byte{1, 2, 3}}},
	}
}
