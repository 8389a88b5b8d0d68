package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// sampleTx builds a transaction exercising every field: multiple args,
// reads with versions, writes with values and deletes, endorsements.
func sampleTx(i int) *protocol.Transaction {
	return &protocol.Transaction{
		ID:            protocol.TxID([]byte{byte('a' + i), '-', 0xff, 0x00}), // non-UTF8 on purpose
		ClientID:      "client0",
		Contract:      "smallbank",
		Function:      "send_payment",
		Args:          []string{"acct1", "acct2", "25"},
		SnapshotBlock: uint64(40 + i),
		RWSet: protocol.RWSet{
			Reads: []protocol.ReadItem{
				{Key: "checking:acct1", Version: seqno.Commit(39, 4)},
				{Key: "checking:acct2", Version: seqno.Commit(uint64(40+i), 1)},
			},
			Writes: []protocol.WriteItem{
				{Key: "checking:acct1", Value: []byte("975")},
				{Key: "checking:acct2", Value: []byte("1025")},
				{Key: "tombstone", Delete: true},
			},
		},
		Endorsements: []protocol.Endorsement{
			{EndorserID: "peer1", Signature: bytes.Repeat([]byte{0xAB}, 64)},
		},
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	cases := []*protocol.Transaction{
		sampleTx(0),
		{}, // zero value
		{ID: "only-id", Args: nil, RWSet: protocol.RWSet{}},
	}
	for i, tx := range cases {
		enc := EncodeTransaction(tx)
		got, err := DecodeTransaction(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Field-for-field round trip: digests (what endorsers signed and
		// what the merkle data hash binds) must survive exactly.
		if !bytes.Equal(got.Digest(), tx.Digest()) {
			t.Fatalf("case %d: digest changed across round trip", i)
		}
		if got.ID != tx.ID || got.ClientID != tx.ClientID || got.Contract != tx.Contract ||
			got.Function != tx.Function || got.SnapshotBlock != tx.SnapshotBlock {
			t.Fatalf("case %d: scalar fields diverged: %+v vs %+v", i, got, tx)
		}
		if !reflect.DeepEqual(got.Args, tx.Args) && len(got.Args)+len(tx.Args) > 0 {
			t.Fatalf("case %d: args diverged", i)
		}
		if !reflect.DeepEqual(got.Endorsements, tx.Endorsements) && len(got.Endorsements)+len(tx.Endorsements) > 0 {
			t.Fatalf("case %d: endorsements diverged", i)
		}
		// Byte identity: re-encoding reproduces the input exactly.
		if re := EncodeTransaction(got); !bytes.Equal(re, enc) {
			t.Fatalf("case %d: re-encode diverged", i)
		}
		// The decode site precomputes the key caches.
		if len(tx.RWSet.Reads) > 0 && got.RWSet.ReadKeys() == nil {
			t.Fatalf("case %d: read keys not precomputed", i)
		}
	}
}

func TestTransactionDecodeRejectsMutations(t *testing.T) {
	enc := EncodeTransaction(sampleTx(0))
	if _, err := DecodeTransaction(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated input decoded")
	}
	if _, err := DecodeTransaction(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	var empty []byte
	if _, err := DecodeTransaction(empty); err == nil {
		t.Fatal("empty input decoded as transaction")
	}
}

// sealChain builds a short, structurally valid chain whose blocks carry
// sealed verdicts, exactly as the lead orderer emits them.
func sealChain(t *testing.T, blocks int) []*ledger.Block {
	t.Helper()
	chain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*ledger.Block
	for b := 0; b < blocks; b++ {
		txs := []*protocol.Transaction{sampleTx(2 * b), sampleTx(2*b + 1)}
		codes := []protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict}
		blk, err := chain.Seal(txs, codes)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
	}
	return out
}

func TestBlockRoundTrip(t *testing.T) {
	for _, blk := range sealChain(t, 3) {
		enc := EncodeBlock(blk)
		got, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("decode block %d: %v", blk.Header.Number, err)
		}
		// The header hash — the value cross-replica agreement compares —
		// must be bit-identical after the round trip.
		if !bytes.Equal(got.Hash(), blk.Hash()) {
			t.Fatalf("block %d: header hash changed", blk.Header.Number)
		}
		if !bytes.Equal(ledger.DataHash(got.Transactions), got.Header.DataHash) {
			t.Fatalf("block %d: decoded transactions no longer match data hash", blk.Header.Number)
		}
		if !reflect.DeepEqual(got.Validation, blk.Validation) {
			t.Fatalf("block %d: sealed verdicts diverged", blk.Header.Number)
		}
		if re := EncodeBlock(got); !bytes.Equal(re, enc) {
			t.Fatalf("block %d: re-encode diverged", blk.Header.Number)
		}
	}
}

func TestBlockWithoutValidationRoundTrip(t *testing.T) {
	blk := &ledger.Block{
		Header:       ledger.Header{Number: 7, PrevHash: []byte{1, 2}, DataHash: []byte{3}},
		Transactions: []*protocol.Transaction{sampleTx(0)},
	}
	got, err := DecodeBlock(EncodeBlock(blk))
	if err != nil {
		t.Fatal(err)
	}
	if got.Validation != nil {
		t.Fatalf("nil validation decoded as %v", got.Validation)
	}
}

func TestBlockRescueDigestRoundTrip(t *testing.T) {
	digest := bytes.Repeat([]byte{0x5c}, 32)
	blk := &ledger.Block{
		Header:       ledger.Header{Number: 9, PrevHash: []byte{1}, DataHash: []byte{2}},
		Transactions: []*protocol.Transaction{sampleTx(0), sampleTx(1)},
		Validation:   []protocol.ValidationCode{protocol.Valid, protocol.Rescued},
		RescueDigest: digest,
	}
	got, err := DecodeBlock(EncodeBlock(blk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RescueDigest, digest) {
		t.Fatalf("rescue digest round-trip: %x != %x", got.RescueDigest, digest)
	}
	if !reflect.DeepEqual(got.Validation, blk.Validation) {
		t.Fatalf("verdicts diverged: %v", got.Validation)
	}
	// nil and empty must both decode to nil — the digest's presence is the
	// "block had rescues" signal, so a phantom empty slice would desync the
	// replicas' nil checks.
	blk.RescueDigest = nil
	blk.Validation = []protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict}
	got, err = DecodeBlock(EncodeBlock(blk))
	if err != nil {
		t.Fatal(err)
	}
	if got.RescueDigest != nil {
		t.Fatalf("nil rescue digest decoded as %v", got.RescueDigest)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{7}, 1000)}
	types := []MsgType{MsgSubmit, MsgStatusReq, MsgBlock}
	for i := range payloads {
		if err := WriteFrame(&buf, types[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range payloads {
		typ, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != types[i] || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("frame %d: got (%v, %d bytes)", i, typ, len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF on drained stream, got %v", err)
	}
}

func TestFrameRejectsVersionSkewAndOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = Version + 1
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("version skew accepted")
	}
	// A length prefix beyond the limit is rejected before any allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, Version, byte(MsgAck)}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if err := WriteFrame(io.Discard, MsgBlock, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestControlMessageRoundTrips(t *testing.T) {
	prop := &Proposal{ClientID: "c", TxID: "c-000001", Contract: "kv", Function: "rmw", Args: []string{"k", "1"}}
	gotP, err := DecodeProposal(EncodeProposal(prop))
	if err != nil || !reflect.DeepEqual(gotP, prop) {
		t.Fatalf("proposal round trip: %v, %+v", err, gotP)
	}
	for _, a := range []Ack{{OK: true}, {OK: false, Err: "boom"}} {
		got, err := DecodeAck(EncodeAck(a))
		if err != nil || got != a {
			t.Fatalf("ack round trip: %v, %+v", err, got)
		}
	}
	for _, r := range []Result{{}, {Found: true, TxID: "t", Code: protocol.MVCCConflict, Block: 9}} {
		got, err := DecodeResult(EncodeResult(r))
		if err != nil || got != r {
			t.Fatalf("result round trip: %v, %+v", err, got)
		}
	}
	for _, pr := range []*ProposalResp{
		{OK: true, Tx: sampleTx(1)},
		{Err: "unknown contract"},
	} {
		enc := EncodeProposalResp(pr)
		got, err := DecodeProposalResp(enc)
		if err != nil {
			t.Fatalf("proposal-resp decode: %v", err)
		}
		if got.OK != pr.OK || got.Err != pr.Err {
			t.Fatalf("proposal-resp round trip: %+v", got)
		}
		if pr.OK && !bytes.Equal(got.Tx.Digest(), pr.Tx.Digest()) {
			t.Fatal("proposal-resp transaction digest changed")
		}
		if re := EncodeProposalResp(got); !bytes.Equal(re, enc) {
			t.Fatal("proposal-resp re-encode diverged")
		}
	}
	// A forged "success" byte outside {0,1} must be rejected, not treated
	// as truthy.
	bad := EncodeProposalResp(&ProposalResp{OK: true, Tx: sampleTx(0)})
	bad[0] = 2
	if _, err := DecodeProposalResp(bad); err == nil {
		t.Fatal("non-canonical ok byte accepted")
	}
	s := Subscribe{From: 41}
	if got, err := DecodeSubscribe(EncodeSubscribe(s)); err != nil || got != s {
		t.Fatalf("subscribe round trip: %v, %+v", err, got)
	}
	st := Status{Role: "peer", Name: "peer1", Blocks: 12, TipHash: []byte{9, 9}, StateHash: "abcd"}
	got, err := DecodeStatus(EncodeStatus(st))
	if err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("status round trip: %v, %+v", err, got)
	}
}

func TestDecodeBoundsHostileCounts(t *testing.T) {
	// A count field claiming 2^32-1 elements with no bytes behind it must
	// fail cleanly (no huge allocation, no panic).
	hostile := appendString(nil, "id")
	hostile = appendString(hostile, "client")
	hostile = appendString(hostile, "contract")
	hostile = appendString(hostile, "fn")
	hostile = appendU32(hostile, 0xFFFFFFFF) // args count
	if _, err := DecodeTransaction(hostile); err == nil {
		t.Fatal("hostile count accepted")
	}
}
