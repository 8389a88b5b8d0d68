package validation

import (
	"slices"
	"testing"

	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

func newState(t *testing.T) *statedb.DB {
	t.Helper()
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func seed(t *testing.T, db *statedb.DB, block uint64, kv map[string]string) {
	t.Helper()
	var writes []protocol.WriteItem
	for k, v := range kv {
		writes = append(writes, protocol.WriteItem{Key: k, Value: []byte(v)})
	}
	if err := db.ApplyBlock(block, []statedb.BlockWrites{{Pos: 1, Writes: writes}}); err != nil {
		t.Fatal(err)
	}
}

// verdicts is a peer's derivation of blk's codes: ComputeVerdicts over the
// database's committed versions.
func verdicts(db *statedb.DB, blk *ledger.Block, opts Options) []protocol.ValidationCode {
	return ComputeVerdicts(DBVersions(db), blk.Header.Number, blk.Transactions, opts)
}

// commitBlock is verdicts followed by the apply a peer makes: the valid
// transactions' writes at their in-block positions. Cases that carry state
// into a later block use it.
func commitBlock(t *testing.T, db *statedb.DB, blk *ledger.Block, opts Options) []protocol.ValidationCode {
	t.Helper()
	codes := verdicts(db, blk, opts)
	var writes []statedb.BlockWrites
	for i, tx := range blk.Transactions {
		if codes[i] == protocol.Valid {
			writes = append(writes, statedb.BlockWrites{Pos: uint32(i + 1), Writes: tx.RWSet.Writes})
		}
	}
	if err := db.ApplyBlock(blk.Header.Number, writes); err != nil {
		t.Fatal(err)
	}
	return codes
}

func sealBlock(t *testing.T, prev *ledger.Chain, txs ...*protocol.Transaction) (*ledger.Chain, *ledger.Block) {
	t.Helper()
	if prev == nil {
		var err error
		prev, err = ledger.NewChain(nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	blk, err := prev.Seal(txs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prev, blk
}

func TestMVCCFreshCommitsStaleAborts(t *testing.T) {
	db := newState(t)
	seed(t, db, 1, map[string]string{"a": "1"})

	fresh := &protocol.Transaction{
		ID: "fresh",
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "a", Version: seqno.Commit(1, 1)}},
			Writes: []protocol.WriteItem{{Key: "b", Value: []byte("x")}},
		},
	}
	stale := &protocol.Transaction{
		ID: "stale",
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "a", Version: seqno.Commit(0, 9)}},
			Writes: []protocol.WriteItem{{Key: "c", Value: []byte("y")}},
		},
	}
	_, blk := sealBlock(t, nil, fresh, stale)
	blk.Header.Number = 2 // chain starts at 1; bump to follow the seeded block
	codes := verdicts(db, blk, Options{MVCC: true})
	if codes[0] != protocol.Valid || codes[1] != protocol.MVCCConflict {
		t.Errorf("codes = %v", codes)
	}
}

func TestIntraBlockStaleness(t *testing.T) {
	// Fabric's rule: a transaction whose read was overwritten by an earlier
	// valid transaction IN THE SAME BLOCK is invalid.
	db := newState(t)
	seed(t, db, 1, map[string]string{"k": "0"})

	writer := &protocol.Transaction{
		ID:    "writer",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("1")}}},
	}
	reader := &protocol.Transaction{
		ID: "reader",
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "k", Version: seqno.Commit(1, 1)}},
			Writes: []protocol.WriteItem{{Key: "out", Value: []byte("x")}},
		},
	}
	// writer first: reader's observed version (1,1) is stale by then.
	_, blk := sealBlock(t, nil, writer, reader)
	blk.Header.Number = 2
	codes := verdicts(db, blk, Options{MVCC: true})
	if codes[0] != protocol.Valid || codes[1] != protocol.MVCCConflict {
		t.Errorf("codes = %v", codes)
	}

	// Opposite order in a fresh world: reader before writer both commit —
	// the very reordering Fabric++ performs.
	db2 := newState(t)
	seed(t, db2, 1, map[string]string{"k": "0"})
	_, blk2 := sealBlock(t, nil, reader, writer)
	blk2.Header.Number = 2
	codes = verdicts(db2, blk2, Options{MVCC: true})
	if codes[0] != protocol.Valid || codes[1] != protocol.Valid {
		t.Errorf("reordered codes = %v", codes)
	}
}

func TestAbsentKeyReads(t *testing.T) {
	db := newState(t)
	seed(t, db, 1, map[string]string{"exists": "1"})
	// Reading an absent key with zero version is fresh; after someone
	// creates it, the same read is stale.
	phantomRead := func(id string) *protocol.Transaction {
		return &protocol.Transaction{
			ID: protocol.TxID(id),
			RWSet: protocol.RWSet{
				Reads:  []protocol.ReadItem{{Key: "ghost"}},
				Writes: []protocol.WriteItem{{Key: "w" + id, Value: []byte("x")}},
			},
		}
	}
	creator := &protocol.Transaction{
		ID:    "creator",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "ghost", Value: []byte("now")}}},
	}
	_, blk := sealBlock(t, nil, phantomRead("p1"), creator, phantomRead("p2"))
	blk.Header.Number = 2
	codes := verdicts(db, blk, Options{MVCC: true})
	want := []protocol.ValidationCode{protocol.Valid, protocol.Valid, protocol.MVCCConflict}
	for i := range want {
		if codes[i] != want[i] {
			t.Errorf("codes[%d] = %v want %v", i, codes[i], want[i])
		}
	}
}

func TestDeleteThenReadInBlock(t *testing.T) {
	db := newState(t)
	seed(t, db, 1, map[string]string{"victim": "1"})
	deleter := &protocol.Transaction{
		ID:    "deleter",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "victim", Delete: true}}},
	}
	reader := &protocol.Transaction{
		ID: "reader",
		RWSet: protocol.RWSet{
			Reads: []protocol.ReadItem{{Key: "victim", Version: seqno.Commit(1, 1)}},
		},
	}
	_, blk := sealBlock(t, nil, deleter, reader)
	blk.Header.Number = 2
	codes := verdicts(db, blk, Options{MVCC: true})
	if codes[0] != protocol.Valid || codes[1] != protocol.MVCCConflict {
		t.Errorf("codes = %v", codes)
	}
}

func TestNoMVCCCommitsEverything(t *testing.T) {
	// Sharp / Focc-s mode: the ordering phase guaranteed serializability;
	// the peer applies everything.
	db := newState(t)
	seed(t, db, 1, map[string]string{"a": "1"})
	stale := &protocol.Transaction{
		ID: "stale",
		RWSet: protocol.RWSet{
			Reads:  []protocol.ReadItem{{Key: "a", Version: seqno.Commit(0, 5)}},
			Writes: []protocol.WriteItem{{Key: "b", Value: []byte("x")}},
		},
	}
	_, blk := sealBlock(t, nil, stale)
	blk.Header.Number = 2
	if codes := verdicts(db, blk, Options{MVCC: false}); codes[0] != protocol.Valid {
		t.Errorf("codes = %v", codes)
	}
}

func TestEndorsementPolicyEnforced(t *testing.T) {
	msp := identity.NewService()
	peer, _ := msp.Enroll("peer1", identity.RolePeer)
	db := newState(t)

	good := &protocol.Transaction{
		ID:    "good",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "x", Value: []byte("1")}}},
	}
	good.Endorsements = []protocol.Endorsement{{EndorserID: "peer1", Signature: peer.Sign(good.Digest())}}
	unsigned := &protocol.Transaction{
		ID:    "unsigned",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "y", Value: []byte("1")}}},
	}
	_, blk := sealBlock(t, nil, good, unsigned)
	codes := verdicts(db, blk, Options{
		MVCC:   true,
		MSP:    msp,
		Policy: identity.SignedBy("peer1"),
	})
	if codes[0] != protocol.Valid || codes[1] != protocol.EndorsementFailure {
		t.Errorf("codes = %v", codes)
	}
}

func TestVersionsAssignedByBlockPosition(t *testing.T) {
	// A valid write takes the version (block, position): a later reader in
	// the same block that observed it is fresh, one that observed an
	// earlier writer's version is stale.
	write := func(id string) *protocol.Transaction {
		return &protocol.Transaction{ID: protocol.TxID(id), RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte(id)}}}}
	}
	read := func(id string, ver seqno.Seq) *protocol.Transaction {
		return &protocol.Transaction{ID: protocol.TxID(id), RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "k", Version: ver}}}}
	}
	_, blk := sealBlock(t, nil, write("t1"), read("r1", seqno.Commit(1, 1)), write("t3"), read("r2", seqno.Commit(1, 1)), read("r3", seqno.Commit(1, 3)))
	codes := verdicts(newState(t), blk, Options{MVCC: true})
	want := []protocol.ValidationCode{protocol.Valid, protocol.Valid, protocol.Valid, protocol.MVCCConflict, protocol.Valid}
	if !slices.Equal(codes, want) {
		t.Errorf("codes = %v, want %v", codes, want)
	}
}

func TestStaleHelper(t *testing.T) {
	db := newState(t)
	seed(t, db, 1, map[string]string{"a": "1"})
	fresh := &protocol.Transaction{RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "a", Version: seqno.Commit(1, 1)}}}}
	stale := &protocol.Transaction{RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "a"}}}}
	if Stale(db, fresh) {
		t.Error("fresh flagged stale")
	}
	if !Stale(db, stale) {
		t.Error("stale not flagged")
	}
}
