// Package identity implements the membership service of a permissioned
// blockchain: enrollment of clients, peers and orderers with ed25519 key
// pairs, signature verification, revocation, and the endorsement policies
// (AND / OR / K-of-N expression trees) that the validation phase evaluates.
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"fabricsharp/internal/protocol"
)

// Role classifies a network member (Section 2.1's three node roles).
type Role int

const (
	// RoleClient submits transaction proposals.
	RoleClient Role = iota
	// RolePeer executes and validates transactions.
	RolePeer
	// RoleOrderer sequences transactions into blocks.
	RoleOrderer
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RolePeer:
		return "peer"
	case RoleOrderer:
		return "orderer"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Identity is an enrolled member's credential, holding the private key.
type Identity struct {
	ID   string
	Role Role
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// Sign signs msg with the member's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Public returns the member's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// Service is the trusted membership service ("MSP"). Enrollment hands out
// identities; verification and role lookup use only public material.
type Service struct {
	mu      sync.RWMutex
	members map[string]memberRecord
}

type memberRecord struct {
	role    Role
	pub     ed25519.PublicKey
	revoked bool
}

// NewService creates an empty membership service.
func NewService() *Service { return &Service{members: make(map[string]memberRecord)} }

// Enroll registers a new member and returns its credential. Member IDs are
// unique; re-enrollment is rejected.
func (s *Service) Enroll(id string, role Role) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: keygen: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.members[id]; exists {
		return nil, fmt.Errorf("identity: %q already enrolled", id)
	}
	s.members[id] = memberRecord{role: role, pub: pub}
	return &Identity{ID: id, Role: role, pub: pub, priv: priv}, nil
}

// Register adds a member whose public key was produced elsewhere — the
// multi-process deployment's key distribution path, where each node process
// derives the cluster's well-known identities with Deterministic and
// registers their public halves. Duplicate registration with the same key
// and role is a no-op; a conflicting one is rejected.
func (s *Service) Register(id string, role Role, pub ed25519.PublicKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, exists := s.members[id]; exists {
		if rec.role == role && string(rec.pub) == string(pub) {
			return nil
		}
		return fmt.Errorf("identity: %q already enrolled with different credentials", id)
	}
	s.members[id] = memberRecord{role: role, pub: pub}
	return nil
}

// Deterministic derives a member's key pair from its name and role alone, so
// every process in a cluster computes identical credentials without any key
// exchange. This is the *development/test MSP* of the process-per-node mode:
// anyone who knows a node's name can derive its private key, so it provides
// wiring fidelity (real ed25519 signatures over real sockets), not
// confidentiality — a production deployment would replace this with
// provisioned keys. The derivation is versioned; changing it is a
// cluster-wide breaking change.
func Deterministic(id string, role Role) *Identity {
	seed := sha256.Sum256([]byte("fabricsharp-dev-msp-v1|" + role.String() + "|" + id))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{
		ID:   id,
		Role: role,
		pub:  priv.Public().(ed25519.PublicKey),
		priv: priv,
	}
}

// DevMSP builds the development MSP of a cluster from its peer names alone:
// every name's Deterministic public key is registered, and the returned
// policy is the paper's any-single-peer endorsement (Section 5.1). Every
// process of a cluster — and the in-process network — calls it with the same
// names and gets a service that verifies the others' endorsements.
func DevMSP(peerNames ...string) (*Service, Policy) {
	s := NewService()
	for _, name := range peerNames {
		s.members[name] = memberRecord{role: RolePeer, pub: Deterministic(name, RolePeer).pub}
	}
	return s, AnyPeerOf(peerNames...)
}

// Revoke bans a member; its signatures stop verifying.
func (s *Service) Revoke(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.members[id]; ok {
		rec.revoked = true
		s.members[id] = rec
	}
}

// Verify checks that sig is member id's signature over msg.
func (s *Service) Verify(id string, msg, sig []byte) bool {
	s.mu.RLock()
	rec, ok := s.members[id]
	s.mu.RUnlock()
	if !ok || rec.revoked {
		return false
	}
	return ed25519.Verify(rec.pub, msg, sig)
}

// Policy is an endorsement policy: a predicate over the set of members that
// produced valid endorsement signatures.
type Policy interface {
	// Satisfied reports whether the set of verified endorser IDs meets the
	// policy.
	Satisfied(endorsers map[string]bool) bool
	// String renders the policy for diagnostics.
	String() string
}

type signedBy struct{ id string }

// SignedBy requires a specific member's endorsement.
func SignedBy(id string) Policy { return signedBy{id} }

func (p signedBy) Satisfied(e map[string]bool) bool { return e[p.id] }
func (p signedBy) String() string                   { return fmt.Sprintf("SignedBy(%s)", p.id) }

type kOutOf struct {
	k    int
	subs []Policy
}

// KOutOf requires at least k of the sub-policies to be satisfied.
func KOutOf(k int, subs ...Policy) Policy { return kOutOf{k: k, subs: subs} }

// And requires every sub-policy.
func And(subs ...Policy) Policy { return kOutOf{k: len(subs), subs: subs} }

// Or requires any sub-policy.
func Or(subs ...Policy) Policy { return kOutOf{k: 1, subs: subs} }

// AnyPeerOf requires an endorsement from any one of the given peers — the
// paper's experimental setup ("configure the smart contract to be endorsed
// by a single peer; any of the four peers can serve as the endorser").
func AnyPeerOf(ids ...string) Policy {
	subs := make([]Policy, len(ids))
	for i, id := range ids {
		subs[i] = SignedBy(id)
	}
	return Or(subs...)
}

func (p kOutOf) Satisfied(e map[string]bool) bool {
	n := 0
	for _, sub := range p.subs {
		if sub.Satisfied(e) {
			n++
			if n >= p.k {
				return true
			}
		}
	}
	return n >= p.k // covers k == 0
}

func (p kOutOf) String() string {
	return fmt.Sprintf("KOutOf(%d,%d subs)", p.k, len(p.subs))
}

// CheckEndorsements verifies every endorsement signature on tx against the
// membership service, then evaluates the policy over the set of valid
// endorsers. Non-peer or revoked signers never count. self, when non-nil, is
// the checking peer's own SignedRing: an endorsement it produced is counted
// without repeating the ed25519 verification.
func (s *Service) CheckEndorsements(tx *protocol.Transaction, policy Policy, self *SignedRing) error {
	digest := tx.Digest()
	valid := make(map[string]bool, len(tx.Endorsements))
	for _, e := range tx.Endorsements {
		s.mu.RLock()
		rec, ok := s.members[e.EndorserID]
		s.mu.RUnlock()
		if !ok || rec.revoked || rec.role != RolePeer {
			continue
		}
		if self.signed(e.EndorserID, rec.pub, digest, e.Signature) || ed25519.Verify(rec.pub, digest, e.Signature) {
			valid[e.EndorserID] = true
		}
	}
	if !policy.Satisfied(valid) {
		return fmt.Errorf("identity: endorsement policy %s unsatisfied by %d valid endorsements", policy, len(valid))
	}
	return nil
}

// signedRingSize is how many of its own endorsements a peer remembers
// (~400 KB). An endorsement is validated a block or two after it is signed,
// so at the rates one peer endorses this is seconds of history; an older one
// is simply verified again.
const signedRingSize = 4096

// SignedRing signs endorsements for one peer and remembers the last
// signedRingSize (signature → digest) pairs, so the same peer's validation
// need not verify what it signed itself: ed25519 is deterministic and
// correct, so Verify(pub, digest, sig) is true for every pair Sign produced.
// Sign is the only way in — nothing a verification accepted, and nothing from
// outside the process, is ever recorded — and a hit demands the member's
// registered key, the recomputed digest and the full signature all match.
// Safe for concurrent use.
type SignedRing struct {
	id *Identity

	mu    sync.Mutex
	next  uint32
	slots [signedRingSize]signedEntry
	index map[uint64]uint32 // leading signature bytes → slot
}

type signedEntry struct {
	sig    [ed25519.SignatureSize]byte
	digest [sha256.Size]byte
}

// NewSignedRing returns an empty ring signing as id.
func NewSignedRing(id *Identity) *SignedRing {
	return &SignedRing{id: id, index: make(map[uint64]uint32, signedRingSize)}
}

// Sign signs a transaction digest as the ring's member and records the pair,
// evicting the oldest.
func (r *SignedRing) Sign(digest []byte) []byte {
	sig := r.id.Sign(digest)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.slots[r.next]
	if old := binary.LittleEndian.Uint64(e.sig[:]); r.index[old] == r.next {
		delete(r.index, old) // the evicted entry's; a no-op for a slot never used
	}
	copy(e.sig[:], sig)
	copy(e.digest[:], digest)
	r.index[binary.LittleEndian.Uint64(sig)] = r.next
	r.next = (r.next + 1) % signedRingSize
	return sig
}

// signed reports whether the ring itself produced sig over digest as member
// id, whose registered public key is pub. A nil ring never did.
func (r *SignedRing) signed(id string, pub ed25519.PublicKey, digest, sig []byte) bool {
	if r == nil || id != r.id.ID || len(sig) != ed25519.SignatureSize || !pub.Equal(r.id.pub) {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[binary.LittleEndian.Uint64(sig)]
	return ok && string(r.slots[i].sig[:]) == string(sig) && string(r.slots[i].digest[:]) == string(digest)
}
