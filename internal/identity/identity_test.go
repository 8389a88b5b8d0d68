package identity

import (
	"fmt"
	"testing"

	"fabricsharp/internal/protocol"
)

func TestEnrollSignVerify(t *testing.T) {
	svc := NewService()
	alice, err := svc.Enroll("alice", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello")
	sig := alice.Sign(msg)
	if !svc.Verify("alice", msg, sig) {
		t.Error("valid signature rejected")
	}
	if svc.Verify("alice", []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	if svc.Verify("bob", msg, sig) {
		t.Error("unknown member accepted")
	}
}

func TestDuplicateEnrollmentRejected(t *testing.T) {
	svc := NewService()
	if _, err := svc.Enroll("x", RolePeer); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Enroll("x", RoleClient); err == nil {
		t.Error("duplicate enrollment accepted")
	}
}

func TestRevocation(t *testing.T) {
	svc := NewService()
	p, _ := svc.Enroll("peer1", RolePeer)
	msg := []byte("m")
	sig := p.Sign(msg)
	if !svc.Verify("peer1", msg, sig) {
		t.Fatal("pre-revocation verify failed")
	}
	svc.Revoke("peer1")
	if svc.Verify("peer1", msg, sig) {
		t.Error("revoked member's signature accepted")
	}
}

func TestPolicyTrees(t *testing.T) {
	e := func(ids ...string) map[string]bool {
		m := map[string]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	cases := []struct {
		name   string
		policy Policy
		have   map[string]bool
		want   bool
	}{
		{"signedby-yes", SignedBy("a"), e("a"), true},
		{"signedby-no", SignedBy("a"), e("b"), false},
		{"and-yes", And(SignedBy("a"), SignedBy("b")), e("a", "b"), true},
		{"and-partial", And(SignedBy("a"), SignedBy("b")), e("a"), false},
		{"or-yes", Or(SignedBy("a"), SignedBy("b")), e("b"), true},
		{"or-no", Or(SignedBy("a"), SignedBy("b")), e("c"), false},
		{"2of3-yes", KOutOf(2, SignedBy("a"), SignedBy("b"), SignedBy("c")), e("a", "c"), true},
		{"2of3-no", KOutOf(2, SignedBy("a"), SignedBy("b"), SignedBy("c")), e("c"), false},
		{"nested", And(SignedBy("root"), Or(SignedBy("a"), SignedBy("b"))), e("root", "b"), true},
		{"anypeer", AnyPeerOf("p1", "p2", "p3"), e("p2"), true},
		{"empty-and", And(), e(), true},
	}
	for _, c := range cases {
		if got := c.policy.Satisfied(c.have); got != c.want {
			t.Errorf("%s: Satisfied=%v want %v", c.name, got, c.want)
		}
	}
}

func endorse(t *testing.T, svc *Service, tx *protocol.Transaction, peer *Identity) {
	t.Helper()
	tx.Endorsements = append(tx.Endorsements, protocol.Endorsement{
		EndorserID: peer.ID,
		Signature:  peer.Sign(tx.Digest()),
	})
}

func TestCheckEndorsements(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	p2, _ := svc.Enroll("p2", RolePeer)
	client, _ := svc.Enroll("c", RoleClient)

	tx := &protocol.Transaction{ID: "tx1", Contract: "kv", Function: "put"}
	endorse(t, svc, tx, p1)

	if err := svc.CheckEndorsements(tx, SignedBy("p1"), nil); err != nil {
		t.Errorf("single endorsement rejected: %v", err)
	}
	if err := svc.CheckEndorsements(tx, And(SignedBy("p1"), SignedBy("p2")), nil); err == nil {
		t.Error("AND policy satisfied with one endorsement")
	}
	endorse(t, svc, tx, p2)
	if err := svc.CheckEndorsements(tx, And(SignedBy("p1"), SignedBy("p2")), nil); err != nil {
		t.Errorf("two endorsements rejected: %v", err)
	}

	// Clients cannot endorse even with a valid signature.
	tx2 := &protocol.Transaction{ID: "tx2"}
	tx2.Endorsements = []protocol.Endorsement{{EndorserID: "c", Signature: client.Sign(tx2.Digest())}}
	if err := svc.CheckEndorsements(tx2, SignedBy("c"), nil); err == nil {
		t.Error("client endorsement counted")
	}
}

func TestEndorsementBindsRWSet(t *testing.T) {
	// An endorsement signs the digest of the simulation results; mutating
	// the write set afterwards must invalidate it (no-creation property).
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	tx := &protocol.Transaction{
		ID:    "tx",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("honest")}}},
	}
	endorse(t, svc, tx, p1)
	tx.RWSet.Writes[0].Value = []byte("tampered")
	if err := svc.CheckEndorsements(tx, SignedBy("p1"), nil); err == nil {
		t.Error("tampered rwset passed endorsement check")
	}
}

func TestRevokedEndorserDoesNotCount(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	tx := &protocol.Transaction{ID: "tx"}
	endorse(t, svc, tx, p1)
	svc.Revoke("p1")
	if err := svc.CheckEndorsements(tx, SignedBy("p1"), nil); err == nil {
		t.Error("revoked endorser satisfied policy")
	}
}

// ringEndorse endorses tx the way a peer does: through its SignedRing.
func ringEndorse(tx *protocol.Transaction, ring *SignedRing) {
	tx.Endorsements = append(tx.Endorsements, protocol.Endorsement{
		EndorserID: ring.id.ID,
		Signature:  ring.Sign(tx.Digest()),
	})
}

// hits reports whether ring would answer for tx's first endorsement.
func hits(svc *Service, ring *SignedRing, tx *protocol.Transaction) bool {
	e := tx.Endorsements[0]
	return ring.signed(e.EndorserID, svc.members[e.EndorserID].pub, tx.Digest(), e.Signature)
}

// TestSignedRingNeverChangesAVerdict walks every way an endorsement can
// reach a peer's own ring — its own, tampered after signing, signed by
// someone else, forged under its name, revoked, evicted — and checks that
// the ring answers only for what it signed itself, and that the check's
// verdict with the ring equals the verdict without it every time.
func TestSignedRingNeverChangesAVerdict(t *testing.T) {
	svc := NewService()
	self, _ := svc.Enroll("self", RolePeer)
	other, _ := svc.Enroll("other", RolePeer)
	ring := NewSignedRing(self)
	policy := AnyPeerOf("self", "other")
	newTx := func(id string) *protocol.Transaction {
		return &protocol.Transaction{
			ID:    protocol.TxID(id),
			RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "k", Value: []byte("honest")}}},
		}
	}
	check := func(name string, tx *protocol.Transaction, wantHit, wantOK bool) {
		t.Helper()
		if got := hits(svc, ring, tx); got != wantHit {
			t.Errorf("%s: ring hit = %v, want %v", name, got, wantHit)
		}
		with, without := svc.CheckEndorsements(tx, policy, ring), svc.CheckEndorsements(tx, policy, nil)
		if (with == nil) != (without == nil) || (with == nil) != wantOK {
			t.Errorf("%s: with ring: %v, without: %v, want ok=%v", name, with, without, wantOK)
		}
	}

	own := newTx("own")
	ringEndorse(own, ring)
	check("own endorsement", own, true, true)

	// The signature is kept and the write set altered: same endorser, same
	// signature, different digest.
	tampered := newTx("tampered")
	ringEndorse(tampered, ring)
	tampered.RWSet.Writes[0].Value = []byte("tampered")
	check("rwset altered after endorsement", tampered, false, false)

	// A recorded signature moved onto another transaction.
	moved := newTx("moved")
	moved.Endorsements = own.Endorsements
	check("signature of another transaction", moved, false, false)

	foreign := newTx("foreign")
	endorse(t, svc, foreign, other)
	check("another peer's endorsement", foreign, false, true)

	// self's key used outside the ring (the orderer and the layer loops sign
	// with Identity.Sign): valid, verified the long way, and not learned.
	cold := newTx("cold")
	endorse(t, svc, cold, self)
	check("signed outside the ring", cold, false, true)
	check("a successful verify seeds nothing", cold, false, true)

	forged := newTx("forged")
	forged.Endorsements = []protocol.Endorsement{{EndorserID: "self", Signature: other.Sign(forged.Digest())}}
	check("forged under the peer's name", forged, false, false)

	// A ring whose key is not the one the MSP registered under its name.
	impostor := NewSignedRing(&Identity{ID: "other", Role: RolePeer, pub: self.pub, priv: self.priv})
	posed := newTx("posed")
	ringEndorse(posed, impostor)
	if hits(svc, impostor, posed) || svc.CheckEndorsements(posed, policy, impostor) == nil {
		t.Error("a ring answered for a key the MSP does not hold under that name")
	}

	// The ring wraps: the oldest entry is gone, and a real verify gives the
	// same verdict.
	for i := 0; i < signedRingSize; i++ {
		ringEndorse(newTx(fmt.Sprintf("filler%d", i)), ring)
	}
	check("evicted after the ring wrapped", own, false, true)
	if len(ring.index) != signedRingSize {
		t.Errorf("the index holds %d entries after a wrap, want %d", len(ring.index), signedRingSize)
	}
	last := newTx("last")
	ringEndorse(last, ring)
	check("newest entry after the wrap", last, true, true)

	// Membership is checked before the ring is asked: what a revoked peer
	// signed no longer counts, recorded or not.
	svc.Revoke("self")
	check("revoked self", last, true, false)
}
