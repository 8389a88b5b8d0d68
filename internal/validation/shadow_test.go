package validation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// TestShadowMatchesDatabaseAcrossBlocks drives a randomized multi-block
// contended schedule through both derivations — ComputeVerdicts over a
// ShadowState on one side, ValidateAndCommit over a real statedb on the
// other — and asserts the verdicts are byte-identical at every block. This
// is the invariant the deterministic commit-feedback path rests on: the
// value-free shadow is indistinguishable from the full database as far as
// verdicts are concerned.
func TestShadowMatchesDatabaseAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newState(t)
	shadow := NewValueShadowState()
	chain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MVCC: true}

	keys := []string{"a", "b", "c", "d", "e"}
	conflicts := 0
	for block := 1; block <= 30; block++ {
		var txs []*protocol.Transaction
		for i := 0; i < 8; i++ {
			tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("b%dt%d", block, i))}
			// Reads observe the shadow's committed versions, except for a
			// deliberately stale minority (a lagging endorsement).
			for _, k := range keys[:1+rng.Intn(3)] {
				item := protocol.ReadItem{Key: k}
				if ver, ok := shadow.Version(k); ok && rng.Intn(4) > 0 {
					item.Version = ver
				}
				tx.RWSet.Reads = append(tx.RWSet.Reads, item)
			}
			w := protocol.WriteItem{Key: keys[rng.Intn(len(keys))], Value: []byte("v")}
			if rng.Intn(8) == 0 {
				w.Delete = true
				w.Value = nil
			}
			tx.RWSet.Writes = []protocol.WriteItem{w}
			txs = append(txs, tx)
		}
		blk, err := chain.Seal(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		shadowCodes := ComputeVerdicts(shadow, blk.Header.Number, txs, opts)
		dbCodes, err := ValidateAndCommit(db, blk, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range txs {
			if shadowCodes[i] != dbCodes[i] {
				t.Fatalf("block %d tx %d: shadow %v, database %v", block, i, shadowCodes[i], dbCodes[i])
			}
			if dbCodes[i] != protocol.Valid {
				conflicts++
			}
		}
		shadow.ApplyRescued(blk.Header.Number, txs, shadowCodes, nil)
		if shadow.Height() != blk.Header.Number {
			t.Fatalf("shadow height %d after block %d", shadow.Height(), blk.Header.Number)
		}
	}
	if conflicts == 0 {
		t.Error("no MVCC conflicts generated — the equivalence above is vacuous")
	}
}

// TestShadowTombstones checks deletes shadow exactly like the database
// reports them: a deleted key reads as absent, and a read carrying the
// pre-delete version is stale.
func TestShadowTombstones(t *testing.T) {
	shadow := NewValueShadowState()
	writer := &protocol.Transaction{
		ID:    "w",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("v")}}},
	}
	shadow.ApplyRescued(1, []*protocol.Transaction{writer}, []protocol.ValidationCode{protocol.Valid}, nil)
	if ver, ok := shadow.Version("k"); !ok || ver != seqno.Commit(1, 1) {
		t.Fatalf("k = %v, %v", ver, ok)
	}

	deleter := &protocol.Transaction{
		ID:    "d",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Delete: true}}},
	}
	shadow.ApplyRescued(2, []*protocol.Transaction{deleter}, []protocol.ValidationCode{protocol.Valid}, nil)
	if _, ok := shadow.Version("k"); ok {
		t.Error("deleted key still has a version")
	}

	// A reader that observed (1,1) is stale against the tombstone; a reader
	// observing absence is fresh — byte-for-byte what the database decides.
	staleReader := &protocol.Transaction{
		ID:    "stale",
		RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "k", Version: seqno.Commit(1, 1)}}},
	}
	freshReader := &protocol.Transaction{
		ID:    "fresh",
		RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "k"}}},
	}
	codes := ComputeVerdicts(shadow, 3, []*protocol.Transaction{staleReader, freshReader}, Options{MVCC: true})
	if codes[0] != protocol.MVCCConflict || codes[1] != protocol.Valid {
		t.Errorf("codes = %v", codes)
	}
}

// TestShadowInvalidWritesIgnored checks only Valid transactions advance the
// shadow, mirroring statedb.ApplyBlock's treatment of aborted writes.
func TestShadowInvalidWritesIgnored(t *testing.T) {
	shadow := NewValueShadowState()
	tx := &protocol.Transaction{
		ID:    "aborted",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("v")}}},
	}
	shadow.ApplyRescued(1, []*protocol.Transaction{tx}, []protocol.ValidationCode{protocol.MVCCConflict}, nil)
	if _, ok := shadow.Version("k"); ok {
		t.Error("aborted transaction's write entered the shadow")
	}
	if shadow.Len() != 0 {
		t.Errorf("shadow tracks %d keys", shadow.Len())
	}
}

// TestComputeVerdictsEndorsementPolicy checks the endorsement half of the
// shared verdict function: the same MSP/policy switches the peers run.
func TestComputeVerdictsEndorsementPolicy(t *testing.T) {
	msp := identity.NewService()
	peer, err := msp.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	good := &protocol.Transaction{
		ID:    "good",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "x", Value: []byte("1")}}},
	}
	good.Endorsements = []protocol.Endorsement{{EndorserID: "peer1", Signature: peer.Sign(good.Digest())}}
	unsigned := &protocol.Transaction{
		ID:    "unsigned",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "y", Value: []byte("1")}}},
	}
	opts := Options{
		MVCC:   true,
		MSP:    msp,
		Policy: identity.SignedBy("peer1"),
	}
	txs := []*protocol.Transaction{good, unsigned}
	codes := ComputeVerdicts(NewValueShadowState(), 1, txs, opts)
	if codes[0] != protocol.Valid || codes[1] != protocol.EndorsementFailure {
		t.Errorf("codes = %v", codes)
	}
	// The parallel precheck the orderers use is verdict-identical to the
	// inline sequential pass, for any worker count.
	for _, workers := range []int{1, 2, 8} {
		failed := PrecheckEndorsements(txs, opts, workers)
		got := ComputeVerdictsPrechecked(NewValueShadowState(), 1, txs, opts, failed)
		for i := range codes {
			if got[i] != codes[i] {
				t.Errorf("workers=%d tx %d: %v want %v", workers, i, got[i], codes[i])
			}
		}
	}
	if PrecheckEndorsements(txs, Options{MVCC: true}, 4) != nil {
		t.Error("precheck without MSP/policy should report nothing to check")
	}
}

// TestPrecheckWithTheSignedRingMatchesWithout builds a seeded block mixing
// a peer's own endorsements, another peer's, forged ones, tampered ones and a
// revoked peer's, and checks the failure mask is the same slice with the
// peer's SignedRing and without it, at several worker counts.
func TestPrecheckWithTheSignedRingMatchesWithout(t *testing.T) {
	msp := identity.NewService()
	self, _ := msp.Enroll("self", identity.RolePeer)
	other, _ := msp.Enroll("other", identity.RolePeer)
	gone, _ := msp.Enroll("gone", identity.RolePeer)
	ring, goneRing := identity.NewSignedRing(self), identity.NewSignedRing(gone)
	rng := rand.New(rand.NewSource(23))
	var txs []*protocol.Transaction
	var want []bool
	for i := 0; i < 200; i++ {
		tx := &protocol.Transaction{
			ID:    protocol.TxID(fmt.Sprintf("tx%d", i)),
			RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", rng.Intn(16)), Value: []byte("v")}}},
		}
		sign := func(id string, sig []byte) {
			tx.Endorsements = []protocol.Endorsement{{EndorserID: id, Signature: sig}}
		}
		kind := rng.Intn(5)
		switch kind {
		case 0: // own, through the ring
			sign("self", ring.Sign(tx.Digest()))
		case 1: // another peer's
			sign("other", other.Sign(tx.Digest()))
		case 2: // forged under the peer's own name
			sign("self", other.Sign(tx.Digest()))
		case 3: // own, write set altered afterwards
			sign("self", ring.Sign(tx.Digest()))
			tx.RWSet.Writes[0].Value = []byte("tampered")
		case 4: // a peer revoked below, which recorded its signature
			sign("gone", goneRing.Sign(tx.Digest()))
		}
		txs = append(txs, tx)
		want = append(want, kind >= 2)
	}
	msp.Revoke("gone")
	opts := Options{MSP: msp, Policy: identity.AnyPeerOf("self", "other", "gone")}
	for _, self := range []*identity.SignedRing{nil, ring, goneRing} {
		opts.Self = self
		for _, workers := range []int{1, 4} {
			if got := PrecheckEndorsements(txs, opts, workers); !slices.Equal(got, want) {
				t.Fatalf("ring %v, %d workers: failure mask differs from the expected one", self != nil, workers)
			}
		}
	}
}

// TestDBVersionsAdapter pins the statedb adapter the peers' overlay
// resolution uses: latest version for live keys, absence for deletes.
func TestDBVersionsAdapter(t *testing.T) {
	db := newState(t)
	seed(t, db, 1, map[string]string{"a": "1"})
	src := DBVersions(db)
	if ver, ok := src.Version("a"); !ok || ver != seqno.Commit(1, 1) {
		t.Errorf("a = %v, %v", ver, ok)
	}
	if _, ok := src.Version("ghost"); ok {
		t.Error("absent key has a version")
	}
	if err := db.ApplyBlock(2, []statedb.BlockWrites{{Pos: 1, Writes: []protocol.WriteItem{{Key: "a", Delete: true}}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Version("a"); ok {
		t.Error("deleted key still has a version")
	}
}

// TestShadowBaseAgainstPlainMap holds a shadow seeded with a genesis base to
// one seeded key by key into its entry map, as every shadow was before the
// base: random blocks of valid, conflicting and rescued transactions put,
// delete and re-put genesis and fresh keys, and after every block both
// answer every Read, Version and Len alike.
func TestShadowBaseAgainstPlainMap(t *testing.T) {
	var keys []string
	var genesis []protocol.WriteItem
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("g%02d", i))
		genesis = append(genesis, protocol.WriteItem{Key: keys[i], Value: []byte(fmt.Sprint("init", i))})
	}
	keys = append(keys, "n0", "n1", "n2", "n3")
	genesisVer := seqno.Commit(0, 1)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		based, plain := NewValueShadowState(), NewValueShadowState()
		if err := based.SeedBase(genesis, genesisVer); err != nil {
			t.Fatal(err)
		}
		for _, w := range genesis {
			plain.Seed(w.Key, w.Value, genesisVer)
		}
		writes := func(tag string) []protocol.WriteItem {
			var ws []protocol.WriteItem
			for n := 1 + rng.Intn(3); n > 0; n-- {
				w := protocol.WriteItem{Key: keys[rng.Intn(len(keys))], Value: []byte(tag)}
				if rng.Intn(3) == 0 {
					w = protocol.WriteItem{Key: w.Key, Delete: true}
				}
				ws = append(ws, w)
			}
			return ws
		}
		for block := uint64(1); block <= 60; block++ {
			var txs []*protocol.Transaction
			var codes []protocol.ValidationCode
			var rescued [][]protocol.WriteItem
			for i := 0; i < rng.Intn(5); i++ {
				tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("b%dt%d", block, i))}
				tx.RWSet.Writes = writes(fmt.Sprintf("v%d.%d", block, i))
				code := []protocol.ValidationCode{protocol.Valid, protocol.MVCCConflict, protocol.Rescued}[rng.Intn(3)]
				var re []protocol.WriteItem
				if code == protocol.Rescued {
					re = writes(fmt.Sprintf("r%d.%d", block, i))
				}
				txs, codes, rescued = append(txs, tx), append(codes, code), append(rescued, re)
			}
			based.ApplyRescued(block, txs, codes, rescued)
			plain.ApplyRescued(block, txs, codes, rescued)
			for _, key := range keys {
				v1, ver1, ok1 := based.Read(key)
				v2, ver2, ok2 := plain.Read(key)
				if ok1 != ok2 || ver1 != ver2 || string(v1) != string(v2) {
					t.Fatalf("seed %d block %d: Read(%s) = %q %v %v, plain map %q %v %v", seed, block, key, v1, ver1, ok1, v2, ver2, ok2)
				}
				if ver1, ok1 := based.Version(key); ok1 != ok2 || ver1 != ver2 {
					t.Fatalf("seed %d block %d: Version(%s) = %v %v, plain map %v %v", seed, block, key, ver1, ok1, ver2, ok2)
				}
			}
			if based.Len() != plain.Len() {
				t.Fatalf("seed %d block %d: Len %d, plain map %d", seed, block, based.Len(), plain.Len())
			}
		}
	}
}
