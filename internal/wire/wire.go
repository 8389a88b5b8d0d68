// Package wire is the canonical binary codec for everything that crosses a
// process boundary: transactions, sealed blocks (including the orderer's
// embedded shadow verdicts), and the client/peer/orderer control messages of
// the process-per-node deployment mode.
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
	"io"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
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
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

// frameHeaderLen is u32 length + u8 version + u8 type.
const frameHeaderLen = 6

// WriteFrame writes one length-prefixed frame: u32 payload length, u8
// version, u8 message type, payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrameSize)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = Version
	hdr[5] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, enforcing the version and the size limit.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	if hdr[4] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", hdr[4], Version)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame payload: %w", err)
	}
	return MsgType(hdr[5]), payload, nil
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

func appendU8(dst []byte, v uint8) []byte { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendSeq(dst []byte, s seqno.Seq) []byte {
	dst = appendU64(dst, s.Block)
	return appendU32(dst, uint32(s.Pos))
}

// decoder is a bounds-checked cursor over an input buffer. Every read either
// succeeds or records the first error; subsequent reads are no-ops. Nothing
// here panics on hostile input.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("truncated: need %d bytes, have %d", n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("boolean byte not 0 or 1")
		return false
	}
}

// bytes reads a u32 length-prefixed byte slice. Zero length decodes to nil —
// the canonical form Encode emits for empty slices.
func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.remaining()) {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.take(int(n)))
	return out
}

func (d *decoder) string() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(d.remaining()) {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) seq() seqno.Seq {
	return seqno.Seq{Block: d.u64(), Pos: d.u32()}
}

// count reads a u32 element count and bounds it by the bytes remaining given
// a minimum encoded size per element, so a hostile count cannot force a huge
// allocation before truncation is detected.
func (d *decoder) count(minElemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if uint64(n) > uint64(d.remaining()/minElemSize) {
		d.fail("count %d exceeds remaining %d bytes", n, d.remaining())
		return 0
	}
	return int(n)
}

// finish enforces that the whole input was consumed — trailing garbage would
// break the decode∘encode identity.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", d.remaining())
	}
	return nil
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

// AppendTransaction appends the canonical encoding of tx to dst.
func AppendTransaction(dst []byte, tx *protocol.Transaction) []byte {
	dst = appendString(dst, string(tx.ID))
	dst = appendString(dst, tx.ClientID)
	dst = appendString(dst, tx.Contract)
	dst = appendString(dst, tx.Function)
	dst = appendU32(dst, uint32(len(tx.Args)))
	for _, a := range tx.Args {
		dst = appendString(dst, a)
	}
	dst = appendU64(dst, tx.SnapshotBlock)
	dst = appendU32(dst, uint32(len(tx.RWSet.Reads)))
	for _, r := range tx.RWSet.Reads {
		dst = appendString(dst, r.Key)
		dst = appendSeq(dst, r.Version)
	}
	dst = appendU32(dst, uint32(len(tx.RWSet.Writes)))
	for _, w := range tx.RWSet.Writes {
		dst = appendString(dst, w.Key)
		dst = appendBytes(dst, w.Value)
		dst = appendBool(dst, w.Delete)
	}
	dst = appendU32(dst, uint32(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		dst = appendString(dst, e.EndorserID)
		dst = appendBytes(dst, e.Signature)
	}
	return dst
}

// EncodeTransaction renders tx in the canonical encoding.
func EncodeTransaction(tx *protocol.Transaction) []byte {
	return AppendTransaction(nil, tx)
}

func decodeTransactionBody(d *decoder) *protocol.Transaction {
	tx := &protocol.Transaction{}
	tx.ID = protocol.TxID(d.string())
	tx.ClientID = d.string()
	tx.Contract = d.string()
	tx.Function = d.string()
	if n := d.count(4); n > 0 {
		tx.Args = make([]string, n)
		for i := range tx.Args {
			tx.Args[i] = d.string()
		}
	}
	tx.SnapshotBlock = d.u64()
	if n := d.count(4 + 12); n > 0 {
		tx.RWSet.Reads = make([]protocol.ReadItem, n)
		for i := range tx.RWSet.Reads {
			tx.RWSet.Reads[i] = protocol.ReadItem{Key: d.string(), Version: d.seq()}
		}
	}
	if n := d.count(4 + 4 + 1); n > 0 {
		tx.RWSet.Writes = make([]protocol.WriteItem, n)
		for i := range tx.RWSet.Writes {
			tx.RWSet.Writes[i] = protocol.WriteItem{Key: d.string(), Value: d.bytes(), Delete: d.bool()}
		}
	}
	if n := d.count(4 + 4); n > 0 {
		tx.Endorsements = make([]protocol.Endorsement, n)
		for i := range tx.Endorsements {
			tx.Endorsements[i] = protocol.Endorsement{EndorserID: d.string(), Signature: d.bytes()}
		}
	}
	return tx
}

// DecodeTransaction decodes a canonical transaction encoding. The decoded
// transaction's distinct-key caches are precomputed (the decode site has
// exclusive access — the same contract the in-process build sites follow),
// so hot paths downstream share them safely.
func DecodeTransaction(b []byte) (*protocol.Transaction, error) {
	d := &decoder{buf: b}
	tx := decodeTransactionBody(d)
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("transaction: %w", err)
	}
	tx.RWSet.Precompute()
	return tx, nil
}

// ---------------------------------------------------------------------------
// Block
// ---------------------------------------------------------------------------

// AppendBlock appends the canonical encoding of blk — header, transactions,
// and, when present, the sealed validation verdicts — to dst.
func AppendBlock(dst []byte, blk *ledger.Block) []byte {
	dst = appendU64(dst, blk.Header.Number)
	dst = appendBytes(dst, blk.Header.PrevHash)
	dst = appendBytes(dst, blk.Header.DataHash)
	dst = appendU32(dst, uint32(len(blk.Transactions)))
	for _, tx := range blk.Transactions {
		// Each transaction is itself length-prefixed so a decoder can skip
		// or bound-check entries without parsing them.
		dst = appendBytes(dst, EncodeTransaction(tx))
	}
	if blk.Validation == nil {
		dst = appendBool(dst, false)
	} else {
		dst = appendBool(dst, true)
		dst = appendU32(dst, uint32(len(blk.Validation)))
		for _, c := range blk.Validation {
			dst = appendU8(dst, uint8(c))
		}
	}
	// The rescue digest is always present (length 0 encodes nil), keeping
	// the encoding canonical: one layout, one byte string per block.
	return appendBytes(dst, blk.RescueDigest)
}

// EncodeBlock renders blk in the canonical encoding.
func EncodeBlock(blk *ledger.Block) []byte {
	return AppendBlock(nil, blk)
}

// DecodeBlock decodes a canonical block encoding. Structural soundness
// (hash linkage, verdict-count agreement) is *not* checked here — the
// ledger's Append enforces it, so a decoded block cannot reach a chain
// without passing the same checks an in-process block does.
func DecodeBlock(b []byte) (*ledger.Block, error) {
	d := &decoder{buf: b}
	blk := &ledger.Block{}
	blk.Header.Number = d.u64()
	blk.Header.PrevHash = d.bytes()
	blk.Header.DataHash = d.bytes()
	if n := d.count(4); n > 0 {
		blk.Transactions = make([]*protocol.Transaction, n)
		for i := range blk.Transactions {
			body := d.take(int(d.u32()))
			if d.err != nil {
				break
			}
			sub := &decoder{buf: body}
			tx := decodeTransactionBody(sub)
			if err := sub.finish(); err != nil {
				return nil, fmt.Errorf("block tx %d: %w", i, err)
			}
			tx.RWSet.Precompute()
			blk.Transactions[i] = tx
		}
	}
	if d.bool() {
		n := d.count(1)
		blk.Validation = make([]protocol.ValidationCode, n)
		for i := range blk.Validation {
			blk.Validation[i] = protocol.ValidationCode(d.u8())
		}
	}
	blk.RescueDigest = d.bytes()
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	return blk, nil
}

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
	dst := appendString(nil, p.ClientID)
	dst = appendString(dst, p.TxID)
	dst = appendString(dst, p.Contract)
	dst = appendString(dst, p.Function)
	dst = appendU32(dst, uint32(len(p.Args)))
	for _, a := range p.Args {
		dst = appendString(dst, a)
	}
	return dst
}

// DecodeProposal decodes a Proposal.
func DecodeProposal(b []byte) (*Proposal, error) {
	d := &decoder{buf: b}
	p := &Proposal{
		ClientID: d.string(),
		TxID:     d.string(),
		Contract: d.string(),
		Function: d.string(),
	}
	if n := d.count(4); n > 0 {
		p.Args = make([]string, n)
		for i := range p.Args {
			p.Args[i] = d.string()
		}
	}
	if err := d.finish(); err != nil {
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

// EncodeProposalResp renders r canonically. The transaction body occupies
// the remainder of the payload (present exactly when OK).
func EncodeProposalResp(r *ProposalResp) []byte {
	dst := appendBool(nil, r.OK)
	dst = appendString(dst, r.Err)
	if r.OK {
		dst = AppendTransaction(dst, r.Tx)
	}
	return dst
}

// DecodeProposalResp decodes a ProposalResp.
func DecodeProposalResp(b []byte) (*ProposalResp, error) {
	d := &decoder{buf: b}
	r := &ProposalResp{OK: d.bool(), Err: d.string()}
	if r.OK {
		r.Tx = decodeTransactionBody(d)
	}
	if err := d.finish(); err != nil {
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
	dst := appendBool(nil, a.OK)
	dst = appendString(dst, a.Err)
	dst = appendBool(dst, a.NotLeader)
	return appendString(dst, a.Leader)
}

// DecodeAck decodes an Ack.
func DecodeAck(b []byte) (Ack, error) {
	d := &decoder{buf: b}
	a := Ack{OK: d.bool(), Err: d.string(), NotLeader: d.bool(), Leader: d.string()}
	if err := d.finish(); err != nil {
		return Ack{}, fmt.Errorf("ack: %w", err)
	}
	return a, nil
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
	dst := appendBool(nil, r.Found)
	dst = appendString(dst, r.TxID)
	dst = appendU8(dst, uint8(r.Code))
	return appendU64(dst, r.Block)
}

// DecodeResult decodes a Result.
func DecodeResult(b []byte) (Result, error) {
	d := &decoder{buf: b}
	r := Result{Found: d.bool(), TxID: d.string(), Code: protocol.ValidationCode(d.u8()), Block: d.u64()}
	if err := d.finish(); err != nil {
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
func EncodeSubscribe(s Subscribe) []byte { return appendU64(nil, s.From) }

// DecodeSubscribe decodes a Subscribe.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	d := &decoder{buf: b}
	s := Subscribe{From: d.u64()}
	if err := d.finish(); err != nil {
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
	// Term is the node's current Raft term (orderers in cluster mode; 0
	// otherwise).
	Term uint64
	// Leader is the advertised client address of the last known Raft leader
	// ("" when unknown or not clustered).
	Leader string
	// CommittedTx counts committed transaction verdicts across the chain —
	// the chaos smoke's zero-loss ledger-side tally.
	CommittedTx uint64
}

// EncodeStatus renders s canonically.
func EncodeStatus(s Status) []byte {
	dst := appendString(nil, s.Role)
	dst = appendString(dst, s.Name)
	dst = appendU64(dst, s.Blocks)
	dst = appendBytes(dst, s.TipHash)
	dst = appendString(dst, s.StateHash)
	dst = appendU64(dst, s.Term)
	dst = appendString(dst, s.Leader)
	return appendU64(dst, s.CommittedTx)
}

// DecodeStatus decodes a Status.
func DecodeStatus(b []byte) (Status, error) {
	d := &decoder{buf: b}
	s := Status{
		Role:   d.string(),
		Name:   d.string(),
		Blocks: d.u64(),
	}
	s.TipHash = d.bytes()
	s.StateHash = d.string()
	s.Term = d.u64()
	s.Leader = d.string()
	s.CommittedTx = d.u64()
	if err := d.finish(); err != nil {
		return Status{}, fmt.Errorf("status: %w", err)
	}
	return s, nil
}
