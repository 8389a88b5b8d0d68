package orderer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

// rig is one rescue-enabled Core under an MVCC-skipping scheduler plus the
// peer that validates what it seals: every cut goes through
// commit.ValidateBlock on the peer's state with the committer's asserts
// (sealed verdicts, rescue digest), so a test that only drives arrivals and
// cuts also checks that the peer designates the same tail and re-derives the
// same outcome. Transactions are endorsed against the peer's state at an
// explicit snapshot.
type rig struct {
	t      *testing.T
	core   *Core
	peer   *statedb.DB
	reg    *chaincode.Registry
	signer *identity.Identity
	vopts  commit.Options
	seq    int
	filler int
}

// The named accounts of the directed scenarios; fillers start above them.
const (
	acctK, acctJ, acctP, acctZ = "0", "1", "2", "3"
	firstFiller                = 10
	rigAccounts                = 400
)

func newRig(t *testing.T, system sched.System, opts Options) *rig {
	t.Helper()
	msp, policy := identity.DevMSP("peer0")
	reg := chaincode.NewRegistry(chaincode.KVContract{}, chaincode.ModifiedSmallbank{})
	opts.System, opts.Rescue, opts.Genesis = system, true, workload.AccountGenesis(rigAccounts)
	if opts.BlockSize == 0 {
		opts.BlockSize = 100
	}
	c, err := NewCore(CoreConfig{Options: opts, MSP: msp, Policy: policy, Registry: reg, HashCommitment: true})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SeedGenesis(peer, opts.Genesis); err != nil {
		t.Fatal(err)
	}
	return &rig{
		t: t, core: c, peer: peer, reg: reg, filler: firstFiller,
		signer: identity.Deterministic("peer0", identity.RolePeer),
		vopts: commit.Options{
			Options: validation.Options{MVCC: c.scheduler.NeedsMVCCValidation(), MSP: msp, Policy: policy},
			Rescue:  true, Registry: reg,
		},
	}
}

// endorse simulates an invocation against the peer's state as of block snap
// and signs the result.
func (r *rig) endorse(snap uint64, contract, fn string, args ...string) *protocol.Transaction {
	r.t.Helper()
	c, _ := r.reg.Get(contract)
	rw, err := chaincode.Simulate(c, fn, args, r.peer.SnapshotAt(snap))
	if err != nil {
		r.t.Fatalf("endorse %s %v: %v", fn, args, err)
	}
	r.seq++
	tx := &protocol.Transaction{
		ID: protocol.TxID(fmt.Sprintf("t%03d", r.seq)), ClientID: "rig",
		Contract: contract, Function: fn, Args: args, SnapshotBlock: snap, RWSet: rw,
	}
	tx.Endorsements = []protocol.Endorsement{{EndorserID: r.signer.ID, Signature: r.signer.Sign(tx.Digest())}}
	tx.RWSet.Precompute()
	return tx
}

// op endorses a modified-Smallbank op that reads exactly `reads` and writes
// exactly `writes` of the named accounts, padded to the contract's arity with
// filler accounts no other transaction touches.
func (r *rig) op(snap uint64, reads, writes []string) *protocol.Transaction {
	pad := func(named []string) []string {
		out := append([]string(nil), named...)
		for len(out) < 4 {
			out = append(out, fmt.Sprint(r.filler))
			r.filler++
		}
		return out
	}
	return r.endorse(snap, "msmallbank", "op", append(pad(reads), pad(writes)...)...)
}

func (r *rig) arrive(tx *protocol.Transaction) (protocol.ValidationCode, bool) {
	r.t.Helper()
	code, joined, err := r.core.Arrive(tx)
	if err != nil {
		r.t.Fatal(err)
	}
	return code, joined
}

// mustJoin arrives tx and requires the given fate: Valid for an admission, a
// Deferrable code for a deferral.
func (r *rig) mustJoin(tx *protocol.Transaction, want protocol.ValidationCode) {
	r.t.Helper()
	if code, joined := r.arrive(tx); !joined || code != want {
		r.t.Fatalf("%s: arrival (%v, joined=%v), want (%v, joined)", tx.ID, code, joined, want)
	}
}

// cut seals the open block and commits it on the peer.
func (r *rig) cut() *ledger.Block {
	r.t.Helper()
	blk, _, err := r.core.Cut(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if blk != nil {
		r.commit(blk)
	}
	return blk
}

// commit is the committer's live path on the rig's peer.
func (r *rig) commit(blk *ledger.Block) {
	r.t.Helper()
	res := commit.ValidateBlock(r.peer, blk, r.vopts)
	if err := commit.AssertVerdictsEqual(blk.Header.Number, blk.Validation, res.Codes); err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(res.Rescue.Digest, blk.RescueDigest) {
		r.t.Fatalf("block %d: peer rescue digest diverges from the sealed one", blk.Header.Number)
	}
	if err := r.peer.ApplyBlock(blk.Header.Number, res.Writes); err != nil {
		r.t.Fatal(err)
	}
}

// Events of a rig test that steps envelopes: sealed blocks commit on the peer.
func (r *rig) Admitted(protocol.TxID, protocol.ValidationCode) {}
func (r *rig) Aborted(protocol.TxID, protocol.ValidationCode)  {}
func (r *rig) Sealed(blk *ledger.Block)                        { r.commit(blk) }
func (r *rig) CutStage(uint64, trace.Stage)                    {}

func (r *rig) step(env consensus.Envelope) {
	r.t.Helper()
	if err := r.core.Step(env, r); err != nil {
		r.t.Fatal(err)
	}
}

func codeOf(t *testing.T, blk *ledger.Block, id protocol.TxID) protocol.ValidationCode {
	t.Helper()
	for i, tx := range blk.Transactions {
		if tx.ID == id {
			return blk.Validation[i]
		}
	}
	t.Fatalf("block %d does not hold %s", blk.Header.Number, id)
	return 0
}

// noFeedback is a scheduler whose committed history never learns of a
// rescued tail: the hole CommitTail closes.
type noFeedback struct{ sched.Scheduler }

func (noFeedback) OnBlockCommitted(uint64, []*protocol.Transaction, []protocol.ValidationCode) {}

// hybrids are the two systems that defer: their schedulers skip MVCC.
var hybrids = []sched.System{sched.SystemSharp, sched.SystemFoccS}

// TestStaleReaderOfARescuedWriteCannotCommitValid is the directed regression
// for the scheduler feedback. R is deferred and rescued in block 2, writing k
// and reading j. T, endorsed before block 2, read the k that R overwrote and
// writes the j that R read: T → R (anti-rw on k) and R → T (rw on j), a cycle
// no order repairs — T must not commit Valid. Its mirror M only read the old
// k: M → R alone, serializable, and must still commit Valid. With the
// feedback removed the scheduler knows nothing of R and admits T; the peer,
// which runs no concurrency check under these systems, commits the cycle.
func TestStaleReaderOfARescuedWriteCannotCommitValid(t *testing.T) {
	for _, system := range hybrids {
		for _, feedback := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/feedback=%v", system, feedback), func(t *testing.T) {
				r := newRig(t, system, Options{})
				if !feedback {
					r.core.scheduler = noFeedback{r.core.scheduler}
				}
				// Block 1: W reads p, writes k.
				r.mustJoin(r.op(0, []string{acctP}, []string{acctK}), protocol.Valid)
				r.cut()
				// R, endorsed before block 1: read the old k (and j), writes p and
				// k — W → R → W for fabric#, a concurrent ww for focc-s.
				rTx := r.op(0, []string{acctK, acctJ}, []string{acctP, acctK})
				if code, joined := r.arrive(rTx); !joined || !code.Deferrable() {
					t.Fatalf("R: arrival (%v, joined=%v), want a deferral", code, joined)
				}
				// Something formation orders, so block 2 is not tail-only (the
				// feedback-free variant could not number a tail-only block).
				r.mustJoin(r.op(1, nil, nil), protocol.Valid)
				b2 := r.cut()
				if got := codeOf(t, b2, rTx.ID); got != protocol.Rescued {
					t.Fatalf("R sealed %v, want Rescued", got)
				}
				// Endorsed at block 1, arriving for block 3.
				tTx := r.op(1, []string{acctK}, []string{acctJ})
				mTx := r.op(1, []string{acctK}, []string{acctZ})
				tCode, tJoined := r.arrive(tTx)
				r.mustJoin(mTx, protocol.Valid)
				if !tJoined {
					t.Fatalf("T aborted at arrival (%v): nothing to seal", tCode)
				}
				b3 := r.cut()
				if got := codeOf(t, b3, mTx.ID); got != protocol.Valid {
					t.Errorf("the mirror (reads the old k only) sealed %v, want Valid", got)
				}
				got := codeOf(t, b3, tTx.ID)
				if feedback && got != protocol.Rescued {
					t.Errorf("T sealed %v: a stale reader of a rescued write that also overwrites what the rescue read must be deferred and re-executed", got)
				}
				if !feedback && got != protocol.Valid {
					t.Errorf("T sealed %v without the feedback; the regression no longer shows the hole it guards", got)
				}
			})
		}
	}
}

// TestTailEdges is the deferred tail's table of edges, each on both hybrids.
func TestTailEdges(t *testing.T) {
	// conflict leaves a committed W (block 1) and returns R, endorsed before
	// it, which both schedulers reject for a dependency reason.
	conflict := func(r *rig) *protocol.Transaction {
		r.mustJoin(r.endorse(0, "kv", "rmw", "hot", "1"), protocol.Valid)
		r.cut()
		return r.endorse(0, "kv", "rmw", "hot", "1")
	}
	deferred := func(r *rig, tx *protocol.Transaction) protocol.ValidationCode {
		r.t.Helper()
		code, joined := r.arrive(tx)
		if !joined || !code.Deferrable() {
			r.t.Fatalf("%s: arrival (%v, joined=%v), want a deferral", tx.ID, code, joined)
		}
		return code
	}
	cases := map[string]func(t *testing.T, r *rig){
		"tail-only cut by marker": func(t *testing.T, r *rig) {
			tx := conflict(r)
			r.step(consensus.Envelope{Tx: tx})
			if r.core.Pending() != 1 || r.core.scheduler.PendingCount() != 0 {
				t.Fatalf("pending %d (scheduler %d), want one deferred transaction only", r.core.Pending(), r.core.scheduler.PendingCount())
			}
			r.step(consensus.Envelope{CutBlock: 1}) // stale marker: ignored
			r.step(consensus.Envelope{CutBlock: 2})
			blk, ok := r.core.Chain().Get(2)
			if !ok || len(blk.Transactions) != 1 || blk.Validation[0] != protocol.Rescued {
				t.Fatalf("block 2 = %+v, want the rescued tail alone", blk)
			}
			// The scheduler consumed the number: the next block is 3 on both.
			r.step(consensus.Envelope{Tx: r.endorse(2, "kv", "rmw", "hot", "1")})
			if blk := r.cut(); blk.Header.Number != 3 || blk.Validation[0] != protocol.Valid {
				t.Fatalf("block after the tail-only cut: number %d, codes %v", blk.Header.Number, blk.Validation)
			}
		},
		"tail-only cut by the driver's timer path": func(t *testing.T, r *rig) {
			deferred(r, conflict(r))
			if blk := r.cut(); blk == nil || blk.Header.Number != 2 || blk.Validation[0] != protocol.Rescued {
				t.Fatalf("Cut with only a deferred transaction pending sealed %+v", blk)
			}
		},
		"a deferral fills the block": func(t *testing.T, r *rig) {
			tx := conflict(r)
			for i := 0; i < 3; i++ {
				r.step(consensus.Envelope{Tx: r.endorse(1, "kv", "put", fmt.Sprint("own", i), "v")})
			}
			r.step(consensus.Envelope{Tx: tx}) // the BlockSize-th pending entry
			blk, ok := r.core.Chain().Get(2)
			if !ok || len(blk.Transactions) != 4 || blk.Transactions[3].ID != tx.ID || blk.Validation[3] != protocol.Rescued {
				t.Fatalf("block 2 = %+v, want 3 admitted + the deferral in the tail", blk)
			}
			if r.core.Pending() != 0 {
				t.Fatalf("%d pending after the cut", r.core.Pending())
			}
		},
		"bad endorsement in the tail": func(t *testing.T, r *rig) {
			tx := conflict(r)
			tx.Endorsements[0].Signature[0] ^= 1
			deferred(r, tx)
			blk := r.cut()
			if blk.Validation[0] != protocol.EndorsementFailure || blk.RescueDigest != nil {
				t.Fatalf("sealed %v (digest %x), want EndorsementFailure and nothing re-executed", blk.Validation[0], blk.RescueDigest)
			}
		},
		"re-execution fails": func(t *testing.T, r *rig) {
			// Block 1 funds a; block 2 drains it. R moved 60 out of a while it
			// held 100: a cycle at arrival, insufficient funds at the tail.
			r.mustJoin(r.endorse(0, "kv", "put", "a", "100"), protocol.Valid)
			r.mustJoin(r.endorse(0, "kv", "put", "b", "0"), protocol.Valid)
			r.cut()
			tx := r.endorse(1, "kv", "transfer", "a", "b", "60")
			r.mustJoin(r.endorse(1, "kv", "transfer", "a", "b", "100"), protocol.Valid)
			r.cut()
			code := deferred(r, tx)
			blk := r.cut() // the peer re-derives the same failure, or commit fails the test
			if blk.Validation[0] != code || blk.RescueDigest != nil {
				t.Fatalf("sealed %v (digest %x), want the arrival code %v", blk.Validation[0], blk.RescueDigest, code)
			}
		},
		"a peer without rescue fails the tail": func(t *testing.T, r *rig) {
			deferred(r, conflict(r))
			blk, _, err := r.core.Cut(nil)
			if err != nil {
				t.Fatal(err)
			}
			plain := r.vopts
			plain.Rescue = false
			res := commit.ValidateBlock(r.peer, blk, plain)
			if commit.AssertVerdictsEqual(blk.Header.Number, blk.Validation, res.Codes) == nil {
				t.Fatalf("a rescue-less peer agreed with the sealed tail %v", blk.Validation)
			}
		},
		"stale snapshot is not deferred": func(t *testing.T, r *rig) {
			tx := r.endorse(0, "kv", "rmw", "hot", "1")
			for i := 0; i < 12; i++ { // past MaxSpan (10)
				r.mustJoin(r.endorse(uint64(i), "kv", "put", fmt.Sprint("own", i), "v"), protocol.Valid)
				r.cut()
			}
			if code, joined := r.arrive(tx); joined || code != protocol.AbortStaleSnapshot {
				t.Fatalf("arrival (%v, joined=%v), want AbortStaleSnapshot at arrival", code, joined)
			}
			if r.core.Pending() != 0 {
				t.Fatal("a stale-snapshot arrival is pending")
			}
		},
		"disclosure defers": func(t *testing.T, r *rig) {
			tx := conflict(r)
			r.step(consensus.Envelope{Commitment: tx.DigestHex()})
			r.step(consensus.Envelope{Tx: tx, Disclosure: true})
			if r.core.Pending() != 1 {
				t.Fatalf("pending %d after the disclosure, want the deferral", r.core.Pending())
			}
			if blk := r.cut(); blk.Validation[0] != protocol.Rescued {
				t.Fatalf("sealed %v, want Rescued", blk.Validation[0])
			}
		},
	}
	for _, system := range hybrids {
		for name, run := range cases {
			t.Run(fmt.Sprintf("%s/%s", system, name), func(t *testing.T) {
				run(t, newRig(t, system, Options{BlockSize: 4}))
			})
		}
	}
}

// streamDigest folds a seeded contended stream of n transactions through a
// rig, cutting every blockSize, and returns a digest of the whole sealed chain
// as wire.EncodeBlock renders it. Each transaction is endorsed at the peer's
// tip or, one time in three, a block behind it (stale reads), then next draws
// its operation from the same rng.
func streamDigest(t *testing.T, system sched.System, blockSize, n int, rng *rand.Rand, next func() workload.Op) (digest string, rescued int) {
	r := newRig(t, system, Options{BlockSize: blockSize})
	for i := 0; i < n; i++ {
		snap := r.peer.Height()
		if snap > 0 && rng.Intn(3) == 0 {
			snap--
		}
		op := next()
		r.step(consensus.Envelope{Tx: r.endorse(snap, op.Contract, op.Function, op.Args...)})
	}
	r.cut()
	h := sha256.New()
	r.core.Chain().ForEach(func(b *ledger.Block) bool {
		h.Write(wire.EncodeBlock(b))
		for _, code := range b.Validation {
			if code == protocol.Rescued {
				rescued++
			}
			if code.Deferrable() {
				t.Errorf("block %d of a %s chain holds a %v verdict", b.Header.Number, system, code)
			}
		}
		return true
	})
	return hex.EncodeToString(h.Sum(nil)), rescued
}

// TestVanillaFabricChainIsTheParents pins what the deferred tail must not
// touch: vanilla Fabric validates MVCC at the peers, never defers, and for
// this recorded stream seals — verdicts, rescued write-set digests, hashes —
// the chain the commit before the tail existed sealed (the digest below was
// computed there, by this function).
func TestVanillaFabricChainIsTheParents(t *testing.T) {
	const parents = "5e8e1c095328aa2f5b56d815f2ac6e3c4c1f5c231e82dc299c937cecbbf617b1"
	rng := rand.New(rand.NewSource(30))
	got, rescued := streamDigest(t, sched.SystemFabric, 5, 120, rng, func() workload.Op {
		return workload.Op{Contract: "kv", Function: "rmw", Args: []string{fmt.Sprint("hot", rng.Intn(3)), "1"}}
	})
	if rescued == 0 {
		t.Fatal("the stream exercised no rescue")
	}
	if got != parents {
		t.Fatalf("vanilla fabric + rescue sealed chain %s, the parent commit sealed %s", got, parents)
	}
}

// hotChain folds the hot shape (msmallbank, hot 0.5/0.5) through a rig of
// system: 400 transactions in blocks of 8, past the max_span prune horizon
// (10) five times over and, under fabric#, across two reachability relays.
// 10 of the rig's 400 accounts are hot, so a block of 8 meets about as many
// readers per hot account (1.6) as the cluster's block of 90 over 100 hot
// accounts (1.8).
func hotChain(t *testing.T, system sched.System) (digest string, rescued int) {
	rng := rand.New(rand.NewSource(32))
	gen, err := workload.NewModifiedSmallbank(rng, rigAccounts, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen.HotFrac = 0.025
	return streamDigest(t, system, 8, 400, rng, gen.Next)
}

// TestSharpHotChainIsTheParents pins Fabric#'s decisions — every admission,
// deferral, commit order and rescue — on the hot shape, where about 40 % of
// the stream is deferred and rescued. The digest below is the chain the
// commit before the transitive reduction of the predecessor edges and the
// reuse of the formation's topological order in Algorithm 5 sealed, computed
// there by this function; the commit before the schedulers' per-key state
// was keyed by the record key instead of an interned KeyID seals it too.
// Each change touched only how keys or reachability are represented; a tree
// that seals a different chain here changed the algorithm.
func TestSharpHotChainIsTheParents(t *testing.T) {
	const parents = "0d47a1c2e8e906a58e4f98e298193599025432be7c5b45c84be220084052cfc1"
	got, rescued := hotChain(t, sched.SystemSharp)
	if rescued == 0 {
		t.Fatal("the stream exercised no rescue")
	}
	if got != parents {
		t.Fatalf("fabric# + rescue sealed chain %s (%d rescued), the parent commit sealed %s", got, rescued, parents)
	}
}

// TestHotChainsAreTheParents pins the other key-holding schedulers the same
// way, each with rescue on: the digests are the chains the commit before the
// per-key state was keyed by the record key sealed, computed there by
// hotChain. Focc-s prunes its indices at the horizon; Fabric++ reorders each
// batch over string-keyed conflict maps; Focc-l checks reads against every
// committed version it has seen.
func TestHotChainsAreTheParents(t *testing.T) {
	for _, row := range []struct {
		system  sched.System
		parents string
	}{
		{sched.SystemFoccS, "05c2cd66e84e95a6e84a45203a516991aa6d876c9e01a366ec8fca908679aff3"},
		{sched.SystemFabricPP, "c8600f101013900bc2f1f18315301d026b431ec551aa6042ffdf02abd8e6f24c"},
		{sched.SystemFoccL, "4fe85bdce7daacd500dbbe04d6ae89888d5a5b44d76876577afde47fe7fe4a6b"},
	} {
		t.Run(string(row.system), func(t *testing.T) {
			got, rescued := hotChain(t, row.system)
			if rescued == 0 {
				t.Fatal("the stream exercised no rescue")
			}
			if got != row.parents {
				t.Fatalf("%s + rescue sealed chain %s (%d rescued), the parent commit sealed %s", row.system, got, rescued, row.parents)
			}
		})
	}
}
