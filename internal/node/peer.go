package node

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/fabric"
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
	// Listen is the TCP address for proposals and status requests.
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
	// DataDir, when non-empty, persists this peer's ledger and state; a
	// restart resumes from the stored chain and re-subscribes from its
	// height (catch-up over the wire).
	DataDir string
	// Contracts to deploy (default: the scenario registry's union).
	Contracts []chaincode.Contract
	// Genesis writes seed a fresh peer's state database at the shared
	// genesis version before any block is delivered; the set must be
	// identical on every replica (peers and orderer shadows) or MVCC
	// verdicts diverge. Ignored when DataDir resumes a stored chain.
	Genesis []protocol.WriteItem
	// DialOrderer overrides how the block subscription connects (fault
	// injection seam; see transport.Subscriber.Dial for the no-drops
	// caveat). Default: transport.DialRetry.
	DialOrderer func(addr string) (transport.FrameConn, error)
	// ValidationWorkers caps intra-block validation parallelism
	// (default GOMAXPROCS).
	ValidationWorkers int
	// Rescue enables post-order speculative re-execution of MVCC-aborted
	// transactions; must match the orderer's setting (the rescue digest is
	// byte-asserted across the cluster).
	Rescue bool
	// TraceEvents sizes the always-on stage-tracing ring (events retained;
	// rounded up to a power of two). 0 selects trace.DefaultRingSize.
	TraceEvents int
}

// Peer is a running validating-peer process: endorsement and status over
// TCP, block delivery via a reconnecting subscription feeding the pipelined
// committer.
type Peer struct {
	name      string
	id        *identity.Identity
	msp       *identity.Service
	registry  *chaincode.Registry
	state     *statedb.DB
	chain     *ledger.Chain
	committer *commit.Committer
	srv       *transport.Server
	sub       *transport.Subscriber
	tracer    *trace.Tracer
	closers   []interface{ Close() error }

	// delivered tracks the highest block number handed to the committer —
	// the resubscription cursor. Monotonic; duplicates the orderer replays
	// after a reconnect are dropped before they can double-commit.
	delivered atomic.Uint64

	// failovers counts delivery-subscription moves to a different orderer.
	failovers metrics.Counter

	closed chan struct{}
	errs   errOnce
}

// StartPeer boots a validating-peer process: state, ledger, committer,
// block subscription, and the TCP server.
func StartPeer(cfg PeerConfig) (*Peer, error) {
	if err := nonEmpty(cfg.PeerNames, "PeerNames"); err != nil {
		return nil, err
	}
	mvcc, err := needsMVCC(cfg.System)
	if err != nil {
		return nil, err
	}
	contracts := cfg.Contracts
	if len(contracts) == 0 {
		contracts = defaultContracts()
	}
	p := &Peer{
		name:     cfg.Name,
		msp:      identity.NewService(),
		registry: chaincode.NewRegistry(contracts...),
		tracer:   trace.New(cfg.Name, "peer", cfg.TraceEvents),
		closed:   make(chan struct{}),
	}
	// The deterministic dev MSP: every cluster process derives the same
	// key pairs, so endorsements verify across process boundaries.
	for _, name := range cfg.PeerNames {
		id := identity.Deterministic(name, identity.RolePeer)
		if err := p.msp.Register(name, identity.RolePeer, id.Public()); err != nil {
			return nil, err
		}
		if name == cfg.Name {
			p.id = id
		}
	}
	if p.id == nil {
		return nil, fmt.Errorf("node: peer %q not in cluster peer set %v", cfg.Name, cfg.PeerNames)
	}
	var stateOpts statedb.Options
	var chainKV *kvstore.DB
	if cfg.DataDir != "" {
		stateKV, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(cfg.DataDir, "state")})
		if err != nil {
			return nil, err
		}
		p.closers = append(p.closers, stateKV)
		stateOpts.Backing = stateKV
		if chainKV, err = kvstore.Open(kvstore.Options{Dir: filepath.Join(cfg.DataDir, "blocks")}); err != nil {
			p.closeStores()
			return nil, err
		}
		p.closers = append(p.closers, chainKV)
	}
	if p.state, err = statedb.New(stateOpts); err != nil {
		p.closeStores()
		return nil, err
	}
	if p.chain, err = ledger.NewChain(chainKV); err != nil {
		p.closeStores()
		return nil, err
	}
	if height, ok := p.chain.Height(); ok {
		// Resuming from disk: the committer's chain and state already hold
		// the stored blocks; the subscription resumes just above them.
		p.delivered.Store(height)
	} else if p.state.Keys() == 0 {
		// Fresh replica: install the scenario genesis before the first block
		// can be delivered, at the same version every other replica uses.
		if err := workload.SeedGenesis(p.state, cfg.Genesis); err != nil {
			p.closeStores()
			return nil, fmt.Errorf("node: peer %s genesis: %w", cfg.Name, err)
		}
	}
	workers := cfg.ValidationWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.committer = commit.New(commit.Config{
		Name:  cfg.Name,
		State: p.state,
		Chain: p.chain,
		Validation: commit.Options{
			Options: validation.Options{
				MVCC:   mvcc,
				MSP:    p.msp,
				Policy: identity.AnyPeerOf(cfg.PeerNames...),
			},
			Workers:  workers,
			Rescue:   cfg.Rescue,
			Registry: p.registry,
		},
		OnError: func(err error) { p.errs.set(err) },
		Tracer:  p.tracer,
	})
	p.committer.Start()
	p.sub = &transport.Subscriber{
		Addrs:  cfg.OrdererAddrs,
		Height: p.delivered.Load,
		Deliver: transport.DeliveryFunc(func(blk *ledger.Block) error {
			// Drop a block the orderer replays after a reconnect (the
			// delivery cursor can trail a redial, never lead it).
			if blk.Header.Number <= p.delivered.Load() {
				return nil
			}
			if err := p.errs.get(); err != nil {
				return err // committer poisoned: stop pulling blocks
			}
			p.committer.Deliver(blk)
			p.delivered.Store(blk.Header.Number)
			return nil
		}),
		OnError:    func(err error) { p.errs.set(err) },
		OnFailover: p.failovers.Inc,
		Dial:       cfg.DialOrderer,
	}
	p.sub.Start()
	srv, err := transport.Listen(cfg.Listen, p.handle)
	if err != nil {
		p.sub.Close()
		p.committer.Close()
		p.closeStores()
		return nil, err
	}
	p.srv = srv
	return p, nil
}

func (p *Peer) closeStores() {
	for _, c := range p.closers {
		_ = c.Close()
	}
}

// Addr returns the server's bound address.
func (p *Peer) Addr() string { return p.srv.Addr() }

// Err returns the peer's first fatal error, nil while healthy.
func (p *Peer) Err() error { return p.errs.get() }

// Chain exposes the peer's ledger (tests, tools).
func (p *Peer) Chain() *ledger.Chain { return p.chain }

// Failovers reports how many times the block subscription moved to a
// different orderer.
func (p *Peer) Failovers() uint64 { return p.failovers.Value() }

// State exposes the peer's state database (tests, tools).
func (p *Peer) State() *statedb.DB { return p.state }

// Close shuts the peer down: stop the subscription, drain the committer,
// stop serving, close the stores. Idempotent.
func (p *Peer) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
		close(p.closed)
	}
	p.sub.Close()
	p.committer.Close()
	_ = p.srv.Close()
	p.closeStores()
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
			_ = c.Send(wire.MsgStatus, wire.EncodeStatus(wire.Status{
				Role:        "peer",
				Name:        p.name,
				Height:      p.state.Height(),
				Blocks:      uint64(p.chain.Len()),
				TipHash:     p.chain.TipHash(),
				StateHash:   p.state.StateFingerprint(),
				CommittedTx: p.chain.CommittedTxs(),
			}))
		case wire.MsgTraceReq:
			_ = c.Send(wire.MsgTraceDump, wire.EncodeTraceDump(dumpToWire(p.tracer.Dump())))
		default:
			_ = c.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{Err: fmt.Sprintf("unexpected %v", typ)}))
			return
		}
	}
}

// handleProposal runs the execution phase for a wire client through
// fabric.Endorse — the same routine the in-process client calls.
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
	if _, err := fabric.Endorse(p.state, p.id, p.registry, tx); err != nil {
		fail(err)
		return
	}
	_ = c.Send(wire.MsgProposalResp, wire.EncodeProposalResp(&wire.ProposalResp{OK: true, Tx: tx}))
}
