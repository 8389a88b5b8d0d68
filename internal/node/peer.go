package node

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

// PeerConfig parameterizes a validating-peer process.
type PeerConfig struct {
	// Name is this peer's enrolled identity; it must appear in PeerNames.
	Name string
	// Listen is the address for proposals and status requests, TCP or
	// in-memory ("mem:").
	Listen string
	// OrdererAddrs lists the ordering service's delivery addresses. With a
	// Raft ordering cluster every replica serves the identical chain, so
	// the subscription fails over across them freely.
	OrdererAddrs []string
	// System must match the orderer's (it decides the MVCC switch).
	System sched.System
	// PeerNames is the cluster's full validating set — every name's
	// deterministic public key joins this process's MSP so endorsements
	// from any peer verify during validation.
	PeerNames []string
	// DataDir, when non-empty, is one kvstore holding everything the peer
	// persists under three key prefixes: "b/" block records (verdicts and
	// rescue digest included), "s/" latest state, "meta/height". Each block
	// lands there as one atomic batch, so a restart — after a clean stop or
	// a kill — resumes from a store whose chain tip and state height are the
	// same block, and re-subscribes from its height (catch-up over the
	// wire).
	DataDir string
	// Genesis builds the base a fresh peer's state database is seeded with
	// before any block is delivered, traced as a StageGenesis span; the base
	// must be identical on every replica (peers and orderer shadows) or MVCC
	// verdicts diverge. Not called when DataDir resumes a store.
	Genesis func() (*statedb.Base, error)
	// DialOrderer overrides how the block subscription connects (fault
	// injection seam; see transport.Subscriber.Dial for the no-drops
	// caveat). Default: transport.DialRetry.
	DialOrderer func(addr string) (transport.FrameConn, error)
	// ValidationWorkers caps intra-block validation parallelism
	// (default GOMAXPROCS).
	ValidationWorkers int
	// Contracts are the deployed contracts; nil deploys the scenario
	// registry's full set (scenario.AllContracts). They must be the
	// orderer's (OrdererConfig.Contracts).
	Contracts []chaincode.Contract
	// Rescue enables post-order speculative re-execution of conflict-aborted
	// transactions (commit.Options.Rescue); must match the orderer's setting
	// (the rescue digest is byte-asserted across the cluster).
	Rescue bool
}

// Peer is a validating peer: its own state, ledger tip and store; the
// execution phase (Endorse, Query) and status over the wire; and a
// reconnecting block subscription that commits each block (commit.Block) on
// the goroutine that received it — the tip's only writer. It keeps no
// block: it serves none, and a durable peer's blocks are in its store.
type Peer struct {
	name string
	// signed signs this peer's endorsements and remembers them, so its own
	// validation does not verify them again a block later.
	signed     *identity.SignedRing
	registry   *chaincode.Registry
	state      *statedb.DB
	tip        *ledger.Tip
	store      *kvstore.DB // nil for an in-memory peer
	validation commit.Options
	tracer     *trace.Tracer

	srv *transport.Server     // nil for a peer openPeer built alone
	sub *transport.Subscriber // nil for a peer openPeer built alone

	// resumed is the block the DataDir store held at start (0 when fresh).
	resumed uint64

	// failovers counts delivery-subscription moves to a different orderer.
	failovers metrics.Counter

	// committed is closed and replaced at each commit and at the first
	// failure: a library submit waits on it for its block (waitCommitted).
	committedMu sync.Mutex
	committed   chan struct{}

	closed chan struct{}
	err    atomic.Pointer[error] // the first fatal error
}

// StartPeer boots a validating-peer process: the peer, its block
// subscription, and the server.
func StartPeer(cfg PeerConfig) (*Peer, error) {
	p, err := openPeer(cfg)
	if err != nil {
		return nil, err
	}
	p.sub = &transport.Subscriber{
		Addrs: cfg.OrdererAddrs,
		// The tip is the resubscription cursor: a reopened store resumes
		// just above its block.
		Height:     func() uint64 { height, _ := p.tip.Height(); return height },
		Deliver:    p.deliver,
		OnError:    p.fail,
		OnFailover: p.failovers.Inc,
		Dial:       cfg.DialOrderer,
	}
	// The subscription goroutine commits, and its validation workers
	// inherit its labels.
	pprof.Do(context.Background(), pprof.Labels("goroutine", "committer", "peer", cfg.Name), func(context.Context) { p.sub.Start() })
	if p.srv, err = transport.Listen(cfg.Listen, p.handle); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// openPeer assembles a peer with neither server nor subscription: it opens
// the DataDir store (or none) and seeds the genesis on a fresh replica only.
// A reopened store is the peer's whole past: the next block it takes is the
// one above its height.
func openPeer(cfg PeerConfig) (_ *Peer, err error) {
	if !slices.Contains(cfg.PeerNames, cfg.Name) {
		return nil, fmt.Errorf("node: peer %q not in cluster peer set %v", cfg.Name, cfg.PeerNames)
	}
	// Whether validation must re-check serializability is the system's
	// property — the switch every peer shares with the orderer.
	scheduler, err := sched.New(cfg.System, sched.Options{})
	if err != nil {
		return nil, err
	}
	p := &Peer{
		name:      cfg.Name,
		signed:    identity.NewSignedRing(identity.Deterministic(cfg.Name, identity.RolePeer)),
		registry:  registry(cfg.Contracts),
		tracer:    trace.New(cfg.Name, "peer", 0),
		committed: make(chan struct{}),
		closed:    make(chan struct{}),
	}
	defer func() {
		if err != nil {
			if p.store != nil {
				_ = p.store.Close() // nothing was written; the open error is what matters
			}
			err = fmt.Errorf("node: peer %s: %w", cfg.Name, err)
		}
	}()
	// The deterministic dev MSP: every cluster process derives the same
	// key pairs, so endorsements verify across process boundaries.
	msp, policy := identity.DevMSP(cfg.PeerNames...)
	p.validation = commit.Options{
		Options:  validation.Options{MVCC: scheduler.NeedsMVCCValidation(), MSP: msp, Policy: policy, Self: p.signed},
		Workers:  cfg.ValidationWorkers,
		Rescue:   cfg.Rescue,
		Registry: p.registry,
	}
	if cfg.DataDir != "" {
		if p.store, err = kvstore.Open(kvstore.Options{Dir: cfg.DataDir}); err != nil {
			return nil, err
		}
	}
	if p.state, err = statedb.New(statedb.Options{Backing: p.store}); err != nil {
		return nil, err
	}
	if p.tip, err = ledger.NewTip(p.store); err != nil {
		return nil, err
	}
	// A block lands as one batch, so the two can only disagree in a
	// directory this code did not write; there is no rule to repair it by.
	if tip, _ := p.tip.Height(); tip != p.state.Height() {
		return nil, fmt.Errorf("%s holds chain tip %d but state height %d", cfg.DataDir, tip, p.state.Height())
	}
	// A store with a height record already holds the genesis and must not
	// re-apply block 0.
	if !p.state.Seeded() && cfg.Genesis != nil {
		start := p.tracer.Now()
		base, err := cfg.Genesis()
		if err == nil {
			err = workload.SeedGenesis(p.state, base)
		}
		if err != nil {
			return nil, fmt.Errorf("seeding genesis: %w", err)
		}
		p.tracer.RecordSpan(0, trace.StageGenesis, start)
	}
	p.resumed = p.state.Height()
	return p, nil
}

// deliver commits a block the subscription received, with the frame it was
// decoded from. It skips a block at or below the tip — one the orderer
// replays after a reconnect — and refuses every block once the peer failed.
func (p *Peer) deliver(blk *ledger.Block, frame []byte) error {
	if height, _ := p.tip.Height(); blk.Header.Number <= height {
		return nil
	}
	if err := p.Err(); err != nil {
		return err
	}
	if err := commit.Block(p.state, p.tip, blk, frame, p.validation, p.tracer); err != nil {
		return fmt.Errorf("commit: %s: %w", p.name, err)
	}
	p.wake()
	return nil
}

// State exposes the peer's state database (read-only use).
func (p *Peer) State() *statedb.DB { return p.state }

// Tip exposes the peer's ledger tip: height, tip hash and committed tally.
func (p *Peer) Tip() *ledger.Tip { return p.tip }

// Addr returns the server's bound address.
func (p *Peer) Addr() string { return p.srv.Addr() }

// fail records the peer's first fatal error and wakes its commit waiters.
func (p *Peer) fail(err error) {
	p.err.CompareAndSwap(nil, &err)
	p.wake()
}

// wake closes the commit broadcast channel and replaces it.
func (p *Peer) wake() {
	p.committedMu.Lock()
	close(p.committed)
	p.committed = make(chan struct{})
	p.committedMu.Unlock()
}

// waitCommitted returns once the peer has committed block num, or an error
// when the peer fails or closes first.
func (p *Peer) waitCommitted(num uint64) error {
	for {
		p.committedMu.Lock()
		woken := p.committed
		p.committedMu.Unlock()
		if height, _ := p.Tip().Height(); height >= num {
			return nil
		}
		if err := p.Err(); err != nil {
			return err
		}
		select {
		case <-woken:
		case <-p.closed:
			return fmt.Errorf("node: peer %s closed before committing block %d", p.name, num)
		}
	}
}

// Err returns the peer's first fatal error, nil while healthy.
func (p *Peer) Err() error {
	if err := p.err.Load(); err != nil {
		return *err
	}
	return nil
}

// ResumedAt reports the block the peer's DataDir store held when it started
// (0 for a fresh or in-memory peer); everything above it came over the wire.
func (p *Peer) ResumedAt() uint64 { return p.resumed }

// Failovers reports how many times the block subscription moved to a
// different orderer.
func (p *Peer) Failovers() uint64 { return p.failovers.Value() }

// Close shuts the peer down: stop the subscription (a commit in flight
// finishes first), stop serving, close the store. Idempotent.
func (p *Peer) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
		close(p.closed)
	}
	if p.sub != nil {
		p.sub.Close()
	}
	if p.srv != nil {
		_ = p.srv.Close()
	}
	if p.store != nil {
		_ = p.store.Close() // every committed batch is already in the log
	}
	return nil
}

// handle serves one connection.
func (p *Peer) handle(c *transport.Conn) {
	for {
		typ, payload, err := c.Recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgProposal:
			p.handleProposal(c, payload)
		case wire.MsgStatusReq:
			blocks, tip, committed := p.Tip().Status()
			_ = c.Send(wire.MsgStatus, wire.EncodeStatus(wire.Status{
				Role:        "peer",
				Name:        p.name,
				Blocks:      blocks,
				TipHash:     tip,
				StateHash:   p.State().StateFingerprint(),
				CommittedTx: committed,
			}))
		case wire.MsgTraceReq:
			_ = c.Send(wire.MsgTraceDump, wire.EncodeTraceDump(p.tracer.Dump()))
		case wire.MsgProfileReq:
			serveProfile(c, payload, p.closed)
		default:
			_ = c.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{Err: fmt.Sprintf("unexpected %v", typ)}))
			return
		}
	}
}

// handleProposal runs the execution phase for a wire client through Endorse.
func (p *Peer) handleProposal(c *transport.Conn, payload []byte) {
	fail := func(err error) {
		_ = c.Send(wire.MsgProposalResp, wire.EncodeProposalResp(&wire.ProposalResp{Err: err.Error()}))
	}
	prop, err := wire.DecodeProposal(payload)
	if err != nil {
		fail(err)
		return
	}
	tx := &protocol.Transaction{
		ID:       protocol.TxID(prop.TxID),
		ClientID: prop.ClientID,
		Contract: prop.Contract,
		Function: prop.Function,
		Args:     prop.Args,
	}
	if _, err := p.Endorse(tx); err != nil {
		fail(err)
		return
	}
	_ = c.Send(wire.MsgProposalResp, wire.EncodeProposalResp(&wire.ProposalResp{OK: true, Tx: tx}))
}

// Endorse is the execution phase: simulate tx's invocation against the
// latest block snapshot (Algorithm 1), record the snapshot and read/write
// set on tx, and append the peer's signature over the result. It returns
// the contract's result payload.
func (p *Peer) Endorse(tx *protocol.Transaction) ([]byte, error) {
	snap := p.state.LatestSnapshot()
	rwset, result, err := p.simulate(tx.Contract, tx.Function, tx.Args, snap)
	if err != nil {
		return nil, fmt.Errorf("node: simulation failed: %w", err)
	}
	tx.SnapshotBlock = snap.Block()
	tx.RWSet = rwset
	tx.Endorsements = append(tx.Endorsements, protocol.Endorsement{
		EndorserID: p.name,
		Signature:  p.signed.Sign(tx.Digest()),
	})
	return result, nil
}

// Query is Fabric's query path: it evaluates a read-only invocation against
// the latest block snapshot and returns the result payload the contract set
// via SetResult, endorsing and ordering nothing.
func (p *Peer) Query(contract, function string, args ...string) ([]byte, error) {
	_, result, err := p.simulate(contract, function, args, p.state.LatestSnapshot())
	return result, err
}

func (p *Peer) simulate(contract, function string, args []string, snap *statedb.Snapshot) (protocol.RWSet, []byte, error) {
	cc, ok := p.registry.Get(contract)
	if !ok {
		return protocol.RWSet{}, nil, fmt.Errorf("node: unknown contract %q", contract)
	}
	return chaincode.SimulateFull(cc, function, args, snap)
}
