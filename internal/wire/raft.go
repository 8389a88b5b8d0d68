package wire

// This file holds the Raft consensus message codecs (wire v3). These frames
// flow only between orderer replicas; the same canonical-encoding rules
// apply as everywhere else — fixed field order, one encoding per value,
// defensive decoding — so fault-injection tests can replay, duplicate, and
// truncate frames without ever tripping a panic.

import (
	"fmt"

	"fabricsharp/internal/consensus"
)

// appendEnvelope appends the canonical encoding of a consensus envelope:
// a presence flag plus transaction body, then the control fields.
func appendEnvelope(dst []byte, env *consensus.Envelope) []byte {
	if env.Tx == nil {
		dst = appendBool(dst, false)
	} else {
		dst = appendBool(dst, true)
		dst = appendBytes(dst, EncodeTransaction(env.Tx))
	}
	dst = appendString(dst, env.SubmittedBy)
	dst = appendU64(dst, env.CutBlock)
	dst = appendString(dst, env.Commitment)
	return appendBool(dst, env.Disclosure)
}

func decodeEnvelopeBody(d *decoder) consensus.Envelope {
	var env consensus.Envelope
	if d.bool() {
		body := d.take(int(d.u32()))
		if d.err == nil {
			sub := &decoder{buf: body}
			tx := decodeTransactionBody(sub)
			if err := sub.finish(); err != nil {
				d.fail("envelope tx: %v", err)
			} else {
				tx.RWSet.Precompute()
				env.Tx = tx
			}
		}
	}
	env.SubmittedBy = d.string()
	env.CutBlock = d.u64()
	env.Commitment = d.string()
	env.Disclosure = d.bool()
	return env
}

// minEnvelopeSize is the smallest envelope encoding: presence flag, two
// empty strings, CutBlock, Disclosure.
const minEnvelopeSize = 1 + 4 + 8 + 4 + 1

// EncodeRaftAppend renders an AppendEntries request canonically.
func EncodeRaftAppend(req *consensus.AppendRequest) []byte {
	dst := appendRaftAppendHeader(nil, req)
	for i := range req.Entries {
		dst = appendU64(dst, req.Entries[i].Term)
		dst = appendEnvelope(dst, &req.Entries[i].Env)
	}
	return dst
}

// EncodeRaftEnvelope renders one log entry's envelope as an AppendEntries
// request carries it, for a leader that encodes each entry once and
// splices the bytes into every request (EncodeRaftAppendSpliced).
func EncodeRaftEnvelope(env *consensus.Envelope) []byte { return appendEnvelope(nil, env) }

// EncodeRaftAppendSpliced renders req with envs[i] — the
// EncodeRaftEnvelope bytes of req.Entries[i].Env — in place of each entry's
// envelope: the same bytes as EncodeRaftAppend(req), without encoding an
// envelope again.
func EncodeRaftAppendSpliced(req *consensus.AppendRequest, envs [][]byte) []byte {
	n := 8 + 4 + len(req.LeaderID) + 3*8 + 4
	for _, env := range envs {
		n += 8 + len(env)
	}
	dst := appendRaftAppendHeader(make([]byte, 0, n), req)
	for i, env := range envs {
		dst = appendU64(dst, req.Entries[i].Term)
		dst = append(dst, env...)
	}
	return dst
}

func appendRaftAppendHeader(dst []byte, req *consensus.AppendRequest) []byte {
	dst = appendU64(dst, req.Term)
	dst = appendString(dst, req.LeaderID)
	dst = appendU64(dst, req.PrevIndex)
	dst = appendU64(dst, req.PrevTerm)
	dst = appendU64(dst, req.LeaderCommit)
	return appendU32(dst, uint32(len(req.Entries)))
}

// DecodeRaftAppend decodes an AppendEntries request.
func DecodeRaftAppend(b []byte) (*consensus.AppendRequest, error) {
	d := &decoder{buf: b}
	req := &consensus.AppendRequest{
		Term:         d.u64(),
		LeaderID:     d.string(),
		PrevIndex:    d.u64(),
		PrevTerm:     d.u64(),
		LeaderCommit: d.u64(),
	}
	if n := d.count(8 + minEnvelopeSize); n > 0 {
		req.Entries = make([]consensus.LogEntry, n)
		for i := range req.Entries {
			req.Entries[i].Term = d.u64()
			req.Entries[i].Env = decodeEnvelopeBody(d)
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("raft-append: %w", err)
	}
	return req, nil
}

// EncodeRaftAppendResp renders an AppendEntries response canonically.
func EncodeRaftAppendResp(resp consensus.AppendResponse) []byte {
	dst := appendString(nil, resp.From)
	dst = appendU64(dst, resp.Term)
	dst = appendBool(dst, resp.Success)
	return appendU64(dst, resp.MatchIndex)
}

// DecodeRaftAppendResp decodes an AppendEntries response.
func DecodeRaftAppendResp(b []byte) (consensus.AppendResponse, error) {
	d := &decoder{buf: b}
	resp := consensus.AppendResponse{
		From:       d.string(),
		Term:       d.u64(),
		Success:    d.bool(),
		MatchIndex: d.u64(),
	}
	if err := d.finish(); err != nil {
		return consensus.AppendResponse{}, fmt.Errorf("raft-append-resp: %w", err)
	}
	return resp, nil
}

// EncodeRaftVote renders a RequestVote canonically.
func EncodeRaftVote(req consensus.VoteRequest) []byte {
	dst := appendU64(nil, req.Term)
	dst = appendString(dst, req.CandidateID)
	dst = appendU64(dst, req.LastIndex)
	return appendU64(dst, req.LastTerm)
}

// DecodeRaftVote decodes a RequestVote.
func DecodeRaftVote(b []byte) (consensus.VoteRequest, error) {
	d := &decoder{buf: b}
	req := consensus.VoteRequest{
		Term:        d.u64(),
		CandidateID: d.string(),
		LastIndex:   d.u64(),
		LastTerm:    d.u64(),
	}
	if err := d.finish(); err != nil {
		return consensus.VoteRequest{}, fmt.Errorf("raft-vote: %w", err)
	}
	return req, nil
}

// EncodeRaftVoteResp renders a RequestVote response canonically.
func EncodeRaftVoteResp(resp consensus.VoteResponse) []byte {
	dst := appendString(nil, resp.From)
	dst = appendU64(dst, resp.Term)
	return appendBool(dst, resp.Granted)
}

// DecodeRaftVoteResp decodes a RequestVote response.
func DecodeRaftVoteResp(b []byte) (consensus.VoteResponse, error) {
	d := &decoder{buf: b}
	resp := consensus.VoteResponse{
		From:    d.string(),
		Term:    d.u64(),
		Granted: d.bool(),
	}
	if err := d.finish(); err != nil {
		return consensus.VoteResponse{}, fmt.Errorf("raft-vote-resp: %w", err)
	}
	return resp, nil
}
