package fabric

import (
	"fmt"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/workload"
)

// PeerConfig is what one peer is assembled from. MSP, Policy, MVCC and
// Rescue must equal the ordering service's: the committer byte-asserts its
// verdicts against the ones the orderers sealed.
type PeerConfig struct {
	// ID is the peer's credential; it signs endorsements.
	ID *identity.Identity
	// MSP and Policy verify endorsements during validation.
	MSP    *identity.Service
	Policy identity.Policy
	// Registry holds the deployed contracts (endorsement and rescue).
	Registry *chaincode.Registry
	// MVCC turns on the validation-phase stale-read check
	// (sched.Scheduler.NeedsMVCCValidation of the cluster's system).
	MVCC bool
	// Rescue enables post-order re-execution of conflict-aborted transactions
	// (commit.Options.Rescue).
	Rescue bool
	// Workers caps intra-block validation parallelism (0 = GOMAXPROCS).
	Workers int
	// DataDir, when non-empty, is one kvstore holding everything the peer
	// persists under three key prefixes: "b/" block records (verdicts and
	// rescue digest included), "s/" latest state, "meta/height". Each block
	// lands there as one atomic batch, so a peer built again on the
	// directory — after a clean close or a kill — resumes from a store whose
	// chain tip and state height are the same block.
	DataDir string
	// Genesis is the block-0 write set a fresh replica installs; ignored
	// when DataDir already holds a height record.
	Genesis []protocol.WriteItem
	// Tracer, OnCommit and OnError pass through to the committer
	// (commit.Config).
	Tracer   *trace.Tracer
	OnCommit func(blk *ledger.Block, codes []protocol.ValidationCode)
	OnError  func(err error)
}

// Peer is an endorsing + validating peer with its own state, ledger, and
// pipelined committer.
type Peer struct {
	id *identity.Identity
	// signed signs this peer's endorsements and remembers them, so its own
	// committer does not verify them again a block later.
	signed    *identity.SignedRing
	registry  *chaincode.Registry
	state     *statedb.DB
	chain     *ledger.Chain
	committer *commit.Committer
	store     *kvstore.DB // nil for an in-memory peer
}

// NewPeer assembles a peer: it opens the DataDir store (or none), seeds the
// genesis on a fresh replica only, and starts the committer — the
// validation/commit stage of the EOV pipeline, decoupled from ordering by a
// buffered delivery channel. A reopened store is the peer's whole past: the
// next block it takes is the one above its height.
func NewPeer(cfg PeerConfig) (_ *Peer, err error) {
	p := &Peer{id: cfg.ID, signed: identity.NewSignedRing(cfg.ID), registry: cfg.Registry}
	if cfg.DataDir != "" {
		if p.store, err = kvstore.Open(kvstore.Options{Dir: cfg.DataDir}); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				_ = p.store.Close() // nothing was written; the open error is what matters
			}
		}()
	}
	if p.state, err = statedb.New(statedb.Options{Backing: p.store}); err != nil {
		return nil, err
	}
	if p.chain, err = ledger.NewChain(p.store); err != nil {
		return nil, err
	}
	// A block lands as one batch, so the two can only disagree in a
	// directory this code did not write; there is no rule to repair it by.
	if tip, _ := p.chain.Height(); tip != p.state.Height() {
		return nil, fmt.Errorf("fabric: %s: %s holds chain tip %d but state height %d", cfg.ID.ID, cfg.DataDir, tip, p.state.Height())
	}
	// A store with a height record already holds the genesis and must not
	// re-apply block 0.
	if !p.state.Seeded() {
		if err = workload.SeedGenesis(p.state, cfg.Genesis); err != nil {
			return nil, fmt.Errorf("fabric: seeding %s genesis: %w", cfg.ID.ID, err)
		}
	}
	p.committer = commit.New(commit.Config{
		Name:  cfg.ID.ID,
		State: p.state,
		Chain: p.chain,
		Validation: commit.Options{
			Options:  validation.Options{MVCC: cfg.MVCC, MSP: cfg.MSP, Policy: cfg.Policy, Self: p.signed},
			Workers:  cfg.Workers,
			Rescue:   cfg.Rescue,
			Registry: cfg.Registry,
		},
		OnCommit: cfg.OnCommit,
		OnError:  cfg.OnError,
		Tracer:   cfg.Tracer,
	})
	return p, nil
}

// State exposes the peer's state database (read-only use).
func (p *Peer) State() *statedb.DB { return p.state }

// Chain exposes the peer's ledger.
func (p *Peer) Chain() *ledger.Chain { return p.chain }

// Committer exposes the peer's commit-pipeline stage (delivery, stats,
// idleness).
func (p *Peer) Committer() *commit.Committer { return p.committer }

// Close drains the committer, then closes the durable store.
func (p *Peer) Close() {
	p.committer.Close()
	if p.store != nil {
		_ = p.store.Close() // every committed batch is already in the log
	}
}

// Endorse is the execution phase, shared by the in-process client and the
// wire peer's proposal handler: simulate tx's invocation against the latest
// block snapshot (Algorithm 1), record the snapshot and read/write set on
// tx, and append the peer's signature over the result. It returns the
// contract's result payload.
func (p *Peer) Endorse(tx *protocol.Transaction) ([]byte, error) {
	contract, ok := p.registry.Get(tx.Contract)
	if !ok {
		return nil, fmt.Errorf("fabric: unknown contract %q", tx.Contract)
	}
	snap := p.state.LatestSnapshot()
	rwset, result, err := chaincode.SimulateFull(contract, tx.Function, tx.Args, snap)
	if err != nil {
		return nil, fmt.Errorf("fabric: simulation failed: %w", err)
	}
	tx.SnapshotBlock = snap.Block()
	tx.RWSet = rwset
	tx.Endorsements = append(tx.Endorsements, protocol.Endorsement{
		EndorserID: p.id.ID,
		Signature:  p.signed.Sign(tx.Digest()),
	})
	return result, nil
}
