package fabric

import (
	"fmt"
	"path/filepath"

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
	// Rescue enables post-order re-execution of MVCC-aborted transactions.
	Rescue bool
	// Workers caps intra-block validation parallelism (0 = GOMAXPROCS).
	Workers int
	// DataDir, when non-empty, persists the ledger and latest state in
	// kvstore databases under it; a peer built again on the same directory
	// resumes from the stored chain (crash recovery is inherited from the
	// kvstore WAL).
	DataDir string
	// Genesis is the block-0 write set a fresh replica installs; ignored
	// when DataDir already holds state or blocks.
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
	stores    []*kvstore.DB
}

// NewPeer assembles a peer: it opens the DataDir stores (or in-memory ones),
// seeds the genesis on a fresh replica only, and builds the committer —
// the validation/commit stage of the EOV pipeline, decoupled from ordering
// by a buffered delivery channel. The caller starts the committer once
// anything it wants replayed (Committer().ReplayStored) is in.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	p := &Peer{id: cfg.ID, signed: identity.NewSignedRing(cfg.ID), registry: cfg.Registry}
	var stateOpts statedb.Options
	var chainKV *kvstore.DB
	if cfg.DataDir != "" {
		for _, sub := range []string{"state", "blocks"} {
			db, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(cfg.DataDir, sub)})
			if err != nil {
				p.closeStores()
				return nil, err
			}
			p.stores = append(p.stores, db)
		}
		stateOpts.Backing, chainKV = p.stores[0], p.stores[1]
	}
	var err error
	if p.state, err = statedb.New(stateOpts); err != nil {
		p.closeStores()
		return nil, err
	}
	if p.chain, err = ledger.NewChain(chainKV); err != nil {
		p.closeStores()
		return nil, err
	}
	// A DataDir resume already holds the genesis (its persisted state or
	// chain is non-empty) and must not re-apply block 0.
	if p.chain.Len() == 0 && p.state.Keys() == 0 {
		if err := workload.SeedGenesis(p.state, cfg.Genesis); err != nil {
			p.closeStores()
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

// Close drains the committer, then closes the durable stores.
func (p *Peer) Close() {
	p.committer.Close()
	p.closeStores()
}

func (p *Peer) closeStores() {
	for _, db := range p.stores {
		_ = db.Close()
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
