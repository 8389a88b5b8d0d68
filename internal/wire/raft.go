package wire

// This file holds the Raft consensus message codecs (wire v3). These frames
// flow only between orderer replicas; the same canonical-encoding rules
// apply as everywhere else — fixed field order, one encoding per value,
// defensive decoding — so fault-injection tests can replay, duplicate, and
// truncate frames without ever tripping a panic.

import (
	"fmt"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/consensus"
)

// appendEnvelope appends the canonical encoding of a consensus envelope: a
// presence flag plus the length-prefixed transaction — its bytes spliced in
// when the envelope carries them, else encoded in place — then the control
// fields.
func appendEnvelope(dst []byte, env *consensus.Envelope) []byte {
	switch {
	case env.TxBytes != nil:
		dst = codec.AppendBytes(codec.AppendBool(dst, true), env.TxBytes)
	case env.Tx != nil:
		dst = codec.AppendSizedTransaction(codec.AppendBool(dst, true), env.Tx)
	default:
		dst = codec.AppendBool(dst, false)
	}
	dst = codec.AppendString(dst, env.SubmittedBy)
	dst = codec.AppendU64(dst, env.CutBlock)
	dst = codec.AppendString(dst, env.Commitment)
	return codec.AppendBool(dst, env.Disclosure)
}

// decodeEnvelopeBody decodes an envelope. Its transaction keeps its
// canonical bytes as TxBytes, a sub-slice of the input, not a copy; with
// decodeTx it is decoded as well, so a malformed one refuses the whole
// message.
func decodeEnvelopeBody(d *codec.Decoder, decodeTx bool) consensus.Envelope {
	var env consensus.Envelope
	if d.Bool() {
		if body := d.Sized(); d.Err() == nil {
			env.TxBytes = body
			if decodeTx {
				tx, err := codec.DecodeTransaction(body)
				if err != nil {
					d.Fail("envelope tx: %v", err)
				}
				env.Tx = tx
			}
		}
	}
	env.SubmittedBy = d.String()
	env.CutBlock = d.U64()
	env.Commitment = d.String()
	env.Disclosure = d.Bool()
	return env
}

// minEnvelopeSize is the smallest envelope encoding: presence flag, two
// empty strings, CutBlock, Disclosure.
const minEnvelopeSize = 1 + 4 + 8 + 4 + 1

// EncodeRaftAppend renders an AppendEntries request canonically, splicing
// in the bytes of every entry that carries them (a leader's log entries
// do), so a transaction is not encoded again however many requests carry
// it.
func EncodeRaftAppend(req *consensus.AppendRequest) []byte {
	n := 8 + 4 + len(req.LeaderID) + 3*8 + 4
	for i := range req.Entries {
		n += RaftEntrySize(&req.Entries[i])
	}
	dst := appendRaftAppendHeader(make([]byte, 0, n), req)
	for i := range req.Entries {
		dst = AppendRaftEntry(dst, &req.Entries[i])
	}
	return dst
}

// AppendRaftEntry appends a log entry in the AppendEntries entry encoding:
// its term, then its envelope. A cold Raft log keeps its entries as these
// records, so a run of them is a run of a request's entries.
func AppendRaftEntry(dst []byte, e *consensus.LogEntry) []byte {
	return appendEnvelope(codec.AppendU64(dst, e.Term), &e.Env)
}

// RaftEntrySize is the length of AppendRaftEntry's encoding of an entry
// that carries its transaction's bytes.
func RaftEntrySize(e *consensus.LogEntry) int {
	return 8 + minEnvelopeSize + 4 + len(e.Env.TxBytes) + len(e.Env.SubmittedBy) + len(e.Env.Commitment)
}

// DecodeRaftEntries decodes n entries that AppendRaftEntry wrote back to
// back. Their transactions are not decoded, as they were when they entered
// the log: each entry keeps its bytes, a sub-slice of b.
func DecodeRaftEntries(b []byte, n int) ([]consensus.LogEntry, error) {
	d := codec.NewDecoder(b)
	es := make([]consensus.LogEntry, n)
	for i := range es {
		es[i].Term = d.U64()
		es[i].Env = decodeEnvelopeBody(d, false)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("raft-entries: %w", err)
	}
	return es, nil
}

func appendRaftAppendHeader(dst []byte, req *consensus.AppendRequest) []byte {
	dst = codec.AppendU64(dst, req.Term)
	dst = codec.AppendString(dst, req.LeaderID)
	dst = codec.AppendU64(dst, req.PrevIndex)
	dst = codec.AppendU64(dst, req.PrevTerm)
	dst = codec.AppendU64(dst, req.LeaderCommit)
	return codec.AppendU32(dst, uint32(len(req.Entries)))
}

// DecodeRaftAppend decodes an AppendEntries request.
func DecodeRaftAppend(b []byte) (*consensus.AppendRequest, error) {
	d := codec.NewDecoder(b)
	req := &consensus.AppendRequest{
		Term:         d.U64(),
		LeaderID:     d.String(),
		PrevIndex:    d.U64(),
		PrevTerm:     d.U64(),
		LeaderCommit: d.U64(),
	}
	if n := d.Count(8 + minEnvelopeSize); n > 0 {
		req.Entries = make([]consensus.LogEntry, n)
		for i := range req.Entries {
			req.Entries[i].Term = d.U64()
			req.Entries[i].Env = decodeEnvelopeBody(d, true)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("raft-append: %w", err)
	}
	return req, nil
}

// EncodeRaftAppendResp renders an AppendEntries response canonically.
func EncodeRaftAppendResp(resp consensus.AppendResponse) []byte {
	dst := codec.AppendString(nil, resp.From)
	dst = codec.AppendU64(dst, resp.Term)
	dst = codec.AppendBool(dst, resp.Success)
	return codec.AppendU64(dst, resp.MatchIndex)
}

// DecodeRaftAppendResp decodes an AppendEntries response.
func DecodeRaftAppendResp(b []byte) (consensus.AppendResponse, error) {
	d := codec.NewDecoder(b)
	resp := consensus.AppendResponse{
		From:       d.String(),
		Term:       d.U64(),
		Success:    d.Bool(),
		MatchIndex: d.U64(),
	}
	if err := d.Finish(); err != nil {
		return consensus.AppendResponse{}, fmt.Errorf("raft-append-resp: %w", err)
	}
	return resp, nil
}

// EncodeRaftVote renders a RequestVote canonically.
func EncodeRaftVote(req consensus.VoteRequest) []byte {
	dst := codec.AppendU64(nil, req.Term)
	dst = codec.AppendString(dst, req.CandidateID)
	dst = codec.AppendU64(dst, req.LastIndex)
	return codec.AppendU64(dst, req.LastTerm)
}

// DecodeRaftVote decodes a RequestVote.
func DecodeRaftVote(b []byte) (consensus.VoteRequest, error) {
	d := codec.NewDecoder(b)
	req := consensus.VoteRequest{
		Term:        d.U64(),
		CandidateID: d.String(),
		LastIndex:   d.U64(),
		LastTerm:    d.U64(),
	}
	if err := d.Finish(); err != nil {
		return consensus.VoteRequest{}, fmt.Errorf("raft-vote: %w", err)
	}
	return req, nil
}

// EncodeRaftVoteResp renders a RequestVote response canonically.
func EncodeRaftVoteResp(resp consensus.VoteResponse) []byte {
	dst := codec.AppendString(nil, resp.From)
	dst = codec.AppendU64(dst, resp.Term)
	return codec.AppendBool(dst, resp.Granted)
}

// DecodeRaftVoteResp decodes a RequestVote response.
func DecodeRaftVoteResp(b []byte) (consensus.VoteResponse, error) {
	d := codec.NewDecoder(b)
	resp := consensus.VoteResponse{
		From:    d.String(),
		Term:    d.U64(),
		Granted: d.Bool(),
	}
	if err := d.Finish(); err != nil {
		return consensus.VoteResponse{}, fmt.Errorf("raft-vote-resp: %w", err)
	}
	return resp, nil
}
