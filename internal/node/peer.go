package node

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/fabric"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
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
	// DataDir, when non-empty, persists this peer's ledger and state in one
	// kvstore (fabric.PeerConfig.DataDir has the layout); a restart — after
	// a clean stop or a kill — resumes from the stored chain and
	// re-subscribes from its height (catch-up over the wire).
	DataDir string
	// Genesis builds the base a fresh peer's state database is seeded with
	// before any block is delivered (fabric.PeerConfig.Genesis); the base
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

// Peer is a running validating-peer process: a fabric.Peer plus sockets —
// endorsement and status over the wire, block delivery via a reconnecting
// subscription feeding the pipelined committer.
type Peer struct {
	*fabric.Peer
	name   string
	srv    *transport.Server
	sub    *transport.Subscriber
	tracer *trace.Tracer

	// resumed is the block the DataDir store held at start (0 when fresh).
	resumed uint64
	// delivered tracks the highest block number handed to the committer —
	// the resubscription cursor. Monotonic; duplicates the orderer replays
	// after a reconnect are dropped before they can double-commit.
	delivered atomic.Uint64

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
// subscription, and the TCP server.
func StartPeer(cfg PeerConfig) (*Peer, error) {
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
		tracer:    trace.New(cfg.Name, "peer", 0),
		committed: make(chan struct{}),
		closed:    make(chan struct{}),
	}
	// The deterministic dev MSP: every cluster process derives the same
	// key pairs, so endorsements verify across process boundaries.
	msp, policy := identity.DevMSP(cfg.PeerNames...)
	p.Peer, err = fabric.NewPeer(fabric.PeerConfig{
		ID:       identity.Deterministic(cfg.Name, identity.RolePeer),
		MSP:      msp,
		Policy:   policy,
		Registry: registry(cfg.Contracts),
		MVCC:     scheduler.NeedsMVCCValidation(),
		Rescue:   cfg.Rescue,
		Workers:  cfg.ValidationWorkers,
		DataDir:  cfg.DataDir,
		Genesis:  cfg.Genesis,
		Tracer:   p.tracer,
		OnCommit: func(*ledger.Block, []protocol.ValidationCode) { p.wake() },
		OnError:  p.fail,
	})
	if err != nil {
		return nil, fmt.Errorf("node: peer %s: %w", cfg.Name, err)
	}
	// Resuming from disk, the tip and state stand at the same stored block
	// (NewPeer checked); the subscription resumes just above it.
	p.resumed = p.State().Height()
	p.delivered.Store(p.resumed)
	p.sub = &transport.Subscriber{
		Addrs:  cfg.OrdererAddrs,
		Height: p.delivered.Load,
		Deliver: func(blk *ledger.Block, frame []byte) error {
			// Drop a block the orderer replays after a reconnect (the
			// delivery cursor can trail a redial, never lead it).
			if blk.Header.Number <= p.delivered.Load() {
				return nil
			}
			if err := p.Err(); err != nil {
				return err // committer poisoned: stop pulling blocks
			}
			p.Committer().DeliverFrame(blk, frame)
			p.delivered.Store(blk.Header.Number)
			return nil
		},
		OnError:    p.fail,
		OnFailover: p.failovers.Inc,
		Dial:       cfg.DialOrderer,
	}
	p.sub.Start()
	srv, err := transport.Listen(cfg.Listen, p.handle)
	if err != nil {
		p.sub.Close()
		p.Peer.Close()
		return nil, err
	}
	p.srv = srv
	return p, nil
}

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

// Close shuts the peer down: stop the subscription, drain the committer,
// stop serving, close the store. Idempotent.
func (p *Peer) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
		close(p.closed)
	}
	p.sub.Close()
	_ = p.srv.Close()
	p.Peer.Close()
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

// handleProposal runs the execution phase for a wire client through
// fabric.Peer.Endorse.
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
