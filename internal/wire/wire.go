// Package wire is the canonical binary codec for everything that crosses a
// process boundary: the frames and client/peer/orderer messages of the
// process-per-node deployment mode, and transactions and sealed blocks,
// whose codecs live below the chain (internal/codec, internal/ledger).
//
// The encoding is *canonical*: fixed-width big-endian integers, u32
// length-prefixed strings and byte slices, deterministic field order, strict
// boolean bytes (0 or 1 only), and no trailing bytes accepted. Every value
// therefore has exactly one encoding, which gives two properties the rest of
// the repository leans on:
//
//   - Round-trip exactness: Decode(Encode(v)) reproduces v field for field,
//     so the cross-replica byte-equality assertions (sealed verdicts, chain
//     hashes) survive serialization — a block validated on a remote peer is
//     bit-identical to the block the orderer sealed.
//   - Decode∘Encode identity on bytes: if Decode accepts an input, re-encoding
//     the result reproduces the input exactly (the fuzz targets pin this).
//
// Decoding is defensive: it never panics, bounds every count by the bytes
// actually remaining (so hostile length fields cannot force huge
// allocations), and fails cleanly on truncation, version skew, or oversized
// frames.
//
// Versioning rules: Frames carry a version byte (wire.Version). A node
// rejects frames from a different version — the deployment unit is the
// cluster, upgraded atomically. Any change to a message layout (field added,
// reordered, or re-typed) MUST bump Version; purely additive message *types*
// keep the version, since unknown types already fail loudly at dispatch.
// See docs/transport.md for the full specification.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
)

// Version is the wire-format version carried in every frame header.
// History: v1 original; v2 added the block rescue-digest field; v3 added the
// Raft consensus messages, the Ack leader-redirect fields, and the Status
// term/leader/committed-tx fields; v4 removed Status.Height (a peer's state
// height and chain tip are one number).
const Version = 4

// MaxFrameSize bounds a frame's payload (64 MiB): far above any realistic
// block, small enough that a corrupt length prefix cannot OOM a node.
const MaxFrameSize = 64 << 20

// MsgType tags a frame's payload.
type MsgType uint8

// The message vocabulary of the process-per-node deployment.
const (
	// MsgSubmit carries an endorsed Transaction from a client to the
	// ordering service, which holds the request until the transaction has
	// resolved and answers with its MsgResult.
	MsgSubmit MsgType = 1
	// MsgAck answers what is refused — a submit that does not decode, is
	// rejected or reached a Raft follower (NotLeader), an unknown request —
	// at once; no node sends an OK ack.
	MsgAck MsgType = 2
	// MsgProposal asks a peer to simulate and endorse an invocation.
	MsgProposal MsgType = 3
	// MsgProposalResp answers MsgProposal with the endorsed Transaction.
	MsgProposalResp MsgType = 4
	// MsgResultPoll asks for the fate of a TxID without sending the
	// transaction; it waits like a submit does. The identifier still says
	// "poll" because the frozen benchmark harness refers to it by name.
	MsgResultPoll MsgType = 5
	// MsgResult answers MsgSubmit and MsgResultPoll; Found is false only when
	// the orderer's bound elapsed (or it is shutting down) first.
	MsgResult MsgType = 6
	// MsgSubscribe opens a block-delivery stream from the given height.
	MsgSubscribe MsgType = 7
	// MsgBlock carries one sealed Block on a delivery stream.
	MsgBlock MsgType = 8
	// MsgStatusReq asks a node for its chain/state position.
	MsgStatusReq MsgType = 9
	// MsgStatus answers MsgStatusReq.
	MsgStatus MsgType = 10
	// MsgRaftAppend carries a Raft AppendEntries request (replication and,
	// with no entries, the leader heartbeat) between orderer replicas.
	MsgRaftAppend MsgType = 11
	// MsgRaftAppendResp answers MsgRaftAppend.
	MsgRaftAppendResp MsgType = 12
	// MsgRaftVote carries a Raft RequestVote between orderer replicas.
	MsgRaftVote MsgType = 13
	// MsgRaftVoteResp answers MsgRaftVote.
	MsgRaftVoteResp MsgType = 14
	// MsgTraceReq asks a node to drain its stage-tracing ring.
	MsgTraceReq MsgType = 15
	// MsgTraceDump answers MsgTraceReq with the drained timeline events.
	MsgTraceDump MsgType = 16
	// MsgProfileReq asks a node for one runtime/pprof profile.
	MsgProfileReq MsgType = 17
	// MsgProfile answers MsgProfileReq with the profile or a refusal.
	MsgProfile MsgType = 18
	// MsgCommitment carries a hash commitment (Section 3.5): the raw hex
	// digest of a transaction its client discloses next. The orderer
	// sequences it and answers MsgAck.
	MsgCommitment MsgType = 19
	// MsgDisclosure carries the committed Transaction itself and is answered
	// as MsgSubmit is.
	MsgDisclosure MsgType = 20
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgSubmit:
		return "submit"
	case MsgAck:
		return "ack"
	case MsgProposal:
		return "proposal"
	case MsgProposalResp:
		return "proposal-resp"
	case MsgResultPoll:
		return "result-wait"
	case MsgResult:
		return "result"
	case MsgSubscribe:
		return "subscribe"
	case MsgBlock:
		return "block"
	case MsgStatusReq:
		return "status-req"
	case MsgStatus:
		return "status"
	case MsgRaftAppend:
		return "raft-append"
	case MsgRaftAppendResp:
		return "raft-append-resp"
	case MsgRaftVote:
		return "raft-vote"
	case MsgRaftVoteResp:
		return "raft-vote-resp"
	case MsgTraceReq:
		return "trace-req"
	case MsgTraceDump:
		return "trace-dump"
	case MsgProfileReq:
		return "profile-req"
	case MsgProfile:
		return "profile"
	case MsgCommitment:
		return "commitment"
	case MsgDisclosure:
		return "disclosure"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

// FrameHeaderLen is the size of a frame header: u32 payload length, u8
// version, u8 message type. The payload follows it.
const FrameHeaderLen = 6

// PutFrameHeader fills hdr with the header of a frame of type t carrying n
// payload bytes.
func PutFrameHeader(hdr *[FrameHeaderLen]byte, t MsgType, n int) error {
	if n > MaxFrameSize {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = Version
	hdr[5] = byte(t)
	return nil
}

// ParseFrameHeader checks a frame header's version and size limit and
// returns the frame's message type and payload length, so a reader never
// allocates for a frame it is about to refuse.
func ParseFrameHeader(hdr *[FrameHeaderLen]byte) (MsgType, int, error) {
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrameSize {
		return 0, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	if hdr[4] != Version {
		return 0, 0, fmt.Errorf("wire: version %d, want %d", hdr[4], Version)
	}
	return MsgType(hdr[5]), int(n), nil
}

// ---------------------------------------------------------------------------
// Transaction and block
// ---------------------------------------------------------------------------

// The transaction codec lives in internal/codec and the block codec in
// internal/ledger, below the chain that keeps each transaction's bytes;
// these are their names at the transport.

// EncodeTransaction renders tx in the canonical encoding.
func EncodeTransaction(tx *protocol.Transaction) []byte { return codec.AppendTransaction(nil, tx) }

// DecodeTransaction decodes a canonical transaction encoding, its key caches
// precomputed (codec.DecodeTransaction).
func DecodeTransaction(b []byte) (*protocol.Transaction, error) { return codec.DecodeTransaction(b) }

// EncodeBlock renders blk in the canonical encoding.
func EncodeBlock(blk *ledger.Block) []byte { return ledger.AppendBlock(nil, blk) }

// DecodeBlock decodes a canonical block encoding (ledger.DecodeBlock).
func DecodeBlock(b []byte) (*ledger.Block, error) { return ledger.DecodeBlock(b) }

// ---------------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------------

// Proposal asks a peer to simulate and endorse one invocation. The client
// mints the transaction ID so it can ask for the result by ID regardless of
// which peer endorsed.
type Proposal struct {
	ClientID string
	TxID     string
	Contract string
	Function string
	Args     []string
}

// EncodeProposal renders p canonically.
func EncodeProposal(p *Proposal) []byte {
	dst := codec.AppendString(nil, p.ClientID)
	dst = codec.AppendString(dst, p.TxID)
	dst = codec.AppendString(dst, p.Contract)
	dst = codec.AppendString(dst, p.Function)
	dst = codec.AppendU32(dst, uint32(len(p.Args)))
	for _, a := range p.Args {
		dst = codec.AppendString(dst, a)
	}
	return dst
}

// DecodeProposal decodes a Proposal.
func DecodeProposal(b []byte) (*Proposal, error) {
	d := codec.NewDecoder(b)
	p := &Proposal{
		ClientID: d.String(),
		TxID:     d.String(),
		Contract: d.String(),
		Function: d.String(),
	}
	if n := d.Count(4); n > 0 {
		p.Args = make([]string, n)
		for i := range p.Args {
			p.Args[i] = d.String()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("proposal: %w", err)
	}
	return p, nil
}

// ProposalResp answers a Proposal: the endorsed transaction on success, a
// refusal reason otherwise.
type ProposalResp struct {
	OK  bool
	Err string
	// Tx is the endorsed transaction; non-nil exactly when OK.
	Tx *protocol.Transaction
}

// EncodeProposalResp renders r canonically, into one buffer sized up front.
// The transaction body occupies the remainder of the payload (present
// exactly when OK).
func EncodeProposalResp(r *ProposalResp) []byte {
	size := 1 + 4 + len(r.Err)
	if r.OK {
		size += codec.TransactionSize(r.Tx)
	}
	dst := codec.AppendBool(make([]byte, 0, size), r.OK)
	dst = codec.AppendString(dst, r.Err)
	if r.OK {
		dst = codec.AppendTransaction(dst, r.Tx)
	}
	return dst
}

// DecodeProposalResp decodes a ProposalResp.
func DecodeProposalResp(b []byte) (*ProposalResp, error) {
	d := codec.NewDecoder(b)
	r := &ProposalResp{OK: d.Bool(), Err: d.String()}
	if r.OK {
		r.Tx = codec.ReadTransaction(d)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("proposal-resp: %w", err)
	}
	if r.OK {
		r.Tx.RWSet.Precompute()
	}
	return r, nil
}

// Ack is a generic success/error response. NotLeader distinguishes the one
// retryable refusal in the vocabulary: the contacted orderer is a Raft
// follower, and Leader (when known) is the address the client should submit
// to instead. Clients treat it as a redirect, not a failure.
type Ack struct {
	OK        bool
	Err       string
	NotLeader bool
	// Leader is the advertised client address of the last known leader; ""
	// when the cluster is mid-election.
	Leader string
}

// EncodeAck renders a canonically.
func EncodeAck(a Ack) []byte {
	dst := codec.AppendBool(nil, a.OK)
	dst = codec.AppendString(dst, a.Err)
	dst = codec.AppendBool(dst, a.NotLeader)
	return codec.AppendString(dst, a.Leader)
}

// DecodeAck decodes an Ack.
func DecodeAck(b []byte) (Ack, error) {
	d := codec.NewDecoder(b)
	a := Ack{OK: d.Bool(), Err: d.String(), NotLeader: d.Bool(), Leader: d.String()}
	if err := d.Finish(); err != nil {
		return Ack{}, fmt.Errorf("ack: %w", err)
	}
	return a, nil
}

// DecodeCommitment decodes a commitment's payload, the raw bytes of a digest
// as protocol.Transaction.DigestHex writes it. It accepts exactly 64
// lowercase hex characters: an empty digest would reach the ordering core as
// a time-to-cut marker.
func DecodeCommitment(b []byte) (string, error) {
	if len(b) != 64 || strings.Trim(string(b), "0123456789abcdef") != "" {
		return "", fmt.Errorf("commitment: %.70q is not a 64-character lowercase hex digest", b)
	}
	return string(b), nil
}

// Result reports a transaction's fate to the client waiting for it. Found is
// false when the orderer gave the wait up with the transaction still in
// flight (or unknown); the client asks again, preferably elsewhere.
type Result struct {
	Found bool
	TxID  string
	Code  protocol.ValidationCode
	Block uint64
}

// EncodeResult renders r canonically.
func EncodeResult(r Result) []byte {
	dst := codec.AppendBool(nil, r.Found)
	dst = codec.AppendString(dst, r.TxID)
	dst = codec.AppendU8(dst, uint8(r.Code))
	return codec.AppendU64(dst, r.Block)
}

// DecodeResult decodes a Result.
func DecodeResult(b []byte) (Result, error) {
	d := codec.NewDecoder(b)
	r := Result{Found: d.Bool(), TxID: d.String(), Code: protocol.ValidationCode(d.U8()), Block: d.U64()}
	if err := d.Finish(); err != nil {
		return Result{}, fmt.Errorf("result: %w", err)
	}
	return r, nil
}

// Subscribe opens a block-delivery stream. The server sends every sealed
// block with number > From, in order, forever — history first (catch-up),
// then the live tail.
type Subscribe struct {
	From uint64
}

// EncodeSubscribe renders s canonically.
func EncodeSubscribe(s Subscribe) []byte { return codec.AppendU64(nil, s.From) }

// DecodeSubscribe decodes a Subscribe.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	d := codec.NewDecoder(b)
	s := Subscribe{From: d.U64()}
	if err := d.Finish(); err != nil {
		return Subscribe{}, fmt.Errorf("subscribe: %w", err)
	}
	return s, nil
}

// Status reports a node's chain/state position — what the convergence checks
// compare across peers.
type Status struct {
	// Role is "orderer" or "peer".
	Role string
	// Name is the node's enrolled identity.
	Name string
	// Blocks is the chain length — the node's one height: a peer publishes
	// a block on its chain only after the block's state has landed.
	Blocks uint64
	// TipHash is the hash of the chain's last header — bit-identical across
	// converged replicas.
	TipHash []byte
	// StateHash fingerprints every live (key, value) pair (peers only).
	StateHash string
	// Term is an orderer's Raft term, ≥ 1 once its group has elected (a
	// standalone orderer's group of one does at start); 0 on a peer.
	Term uint64
	// Leader is the last known Raft leader's client address, one a client
	// can dial — a standalone orderer's own ("" while unknown, and on a peer).
	Leader string
	// CommittedTx counts committed transaction verdicts across the chain —
	// the chaos smoke's zero-loss ledger-side tally.
	CommittedTx uint64
}

// EncodeStatus renders s canonically.
func EncodeStatus(s Status) []byte {
	dst := codec.AppendString(nil, s.Role)
	dst = codec.AppendString(dst, s.Name)
	dst = codec.AppendU64(dst, s.Blocks)
	dst = codec.AppendBytes(dst, s.TipHash)
	dst = codec.AppendString(dst, s.StateHash)
	dst = codec.AppendU64(dst, s.Term)
	dst = codec.AppendString(dst, s.Leader)
	return codec.AppendU64(dst, s.CommittedTx)
}

// DecodeStatus decodes a Status.
func DecodeStatus(b []byte) (Status, error) {
	d := codec.NewDecoder(b)
	s := Status{
		Role:   d.String(),
		Name:   d.String(),
		Blocks: d.U64(),
	}
	s.TipHash = d.Bytes()
	s.StateHash = d.String()
	s.Term = d.U64()
	s.Leader = d.String()
	s.CommittedTx = d.U64()
	if err := d.Finish(); err != nil {
		return Status{}, fmt.Errorf("status: %w", err)
	}
	return s, nil
}
