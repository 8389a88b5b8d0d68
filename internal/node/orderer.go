package node

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// OrdererConfig parameterizes an ordering process.
type OrdererConfig struct {
	// Options tune the ordering service itself (system, block cutting,
	// dedup, rescue, genesis, hash commitments). Rescue and Genesis must
	// match the peers': the rescue digest is byte-asserted across the
	// cluster, and every replica — orderer shadows and remote peers alike —
	// must install the identical genesis or MVCC verdicts diverge (resolve it
	// from the scenario registry, one function for every node config). The
	// base is built after a Raft member has started (orderer.NewCore).
	orderer.Options
	// Listen is the address for client submits/result waits and peer
	// subscriptions: TCP ("127.0.0.1:0" picks an ephemeral port) or
	// in-memory ("mem:" picks a fresh name).
	Listen string
	// PeerNames are the validating peers of the cluster (remote processes).
	// Their deterministic public keys form this process's MSP, so
	// endorsements signed across the wire verify here, and the endorsement
	// policy is any-of them.
	PeerNames []string
	// Contracts are the deployed contracts the rescue re-execution resolves;
	// nil deploys the scenario registry's full set (scenario.AllContracts).
	// They must be the peers' (PeerConfig.Contracts).
	Contracts []chaincode.Contract

	// RaftCluster, when non-empty, joins this process to a wire Raft
	// ordering cluster: submissions go through the replicated log, every
	// member seals byte-identical blocks, and followers answer submits with
	// a NotLeader redirect. Each entry is a member's raft address; RaftID
	// must be one of them (this process's own). Empty, the orderer is the
	// one member of its own group, on an in-memory name nobody dials.
	RaftCluster []string
	// RaftID is this member's raft address within RaftCluster.
	RaftID string
	// RaftRedirects maps raft addresses to the matching member's
	// client-facing Listen address — the redirect hint followers attach to
	// NotLeader acks. Missing entries degrade to hint-less redirects
	// (clients rotate instead of jumping straight to the leader).
	RaftRedirects map[string]string
	// RaftDir, when non-empty, persists this member's term and vote so a
	// restart cannot double-vote within a term.
	RaftDir string
	// RaftElectionTimeout overrides the base election timeout (default
	// 250ms, randomized per member).
	RaftElectionTimeout time.Duration
	// RaftDial overrides the raft layer's outbound connection establishment
	// (fault-injection seam; the raft protocol retransmits, so lossy
	// wrappers are safe here). Default: transport.Dial.
	RaftDial func(addr string) (transport.FrameConn, error)
}

// Orderer is a running ordering process: an orderer.Service plus sockets —
// the result store wire clients park on, the block streams peers subscribe
// to, and the status, trace and profile handlers.
type Orderer struct {
	svc     *orderer.Service
	srv     *transport.Server
	results *resultStore

	// raft is the Raft member whose stream the ordering service folds (and
	// closes), kept for redirect hints and status.
	raft      *transport.RaftService
	redirects map[string]string
	name      string
	tracer    *trace.Tracer

	// sealed broadcasts "a block was sealed" to delivery streams: each
	// waiter grabs the current channel and blocks until it closes.
	sealedMu sync.Mutex
	sealed   chan struct{}

	// readErr is the first sealed block a stream could not read back.
	errMu   sync.Mutex
	readErr error

	done      chan struct{}
	closeOnce sync.Once
}

// StartOrderer boots an ordering process and starts serving.
func StartOrderer(cfg OrdererConfig) (*Orderer, error) {
	if err := nonEmpty(cfg.PeerNames, "PeerNames"); err != nil {
		return nil, err
	}
	rc := transport.RaftConfig{
		ID:              cfg.RaftID,
		Cluster:         cfg.RaftCluster,
		Dir:             cfg.RaftDir,
		ElectionTimeout: cfg.RaftElectionTimeout,
		Dial:            cfg.RaftDial,
	}
	if len(rc.Cluster) == 0 {
		rc.ID, rc.Cluster, rc.Listen = "orderer0", []string{"orderer0"}, "mem:"
	}
	raft, err := transport.StartRaft(rc)
	if err != nil {
		return nil, err
	}
	o := &Orderer{
		results:   newResultStore(),
		raft:      raft,
		redirects: cfg.RaftRedirects,
		name:      rc.ID,
		sealed:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	o.tracer = trace.New(o.name, "orderer", 0)
	msp, policy := identity.DevMSP(cfg.PeerNames...)
	svc, err := orderer.New(orderer.Config{
		CoreConfig: orderer.CoreConfig{
			Options:  cfg.Options,
			MSP:      msp,
			Policy:   policy,
			Registry: registry(cfg.Contracts),
		},
		Ordering: raft,
		// Sealed blocks leave through the subscription streams, and results
		// resolve at seal time from the shadow verdicts — which the
		// agreement property guarantees equal the codes every peer will
		// derive (a peer's validation must byte-match them or fail fatally).
		Deliver: o.sealedBlock,
		OnAbort: func(id protocol.TxID, code protocol.ValidationCode) {
			o.results.put(TxResult{TxID: id, Code: code})
		},
		Tracer: o.tracer,
	})
	if err != nil {
		raft.Close()
		return nil, err
	}
	o.svc = svc
	svc.Start()
	// Serve once the orderer is whole: a status answer names its address.
	ready := make(chan struct{})
	srv, err := transport.Listen(cfg.Listen, func(c *transport.Conn) { <-ready; o.handle(c) })
	if err != nil {
		svc.Close()
		return nil, err
	}
	o.srv = srv
	close(ready)
	return o, nil
}

// sealedBlock is the service's delivery. It resolves the block's results
// first — the parked submit handlers answer their clients while nothing else
// wants the CPU — and then wakes every subscription stream; the streams read
// sealed blocks (with verdicts) off the service's chain at their own pace,
// catch-up and live tail in the same loop.
func (o *Orderer) sealedBlock(blk *ledger.Block) error {
	for i, tx := range blk.Transactions {
		o.results.put(TxResult{TxID: tx.ID, Code: blk.Validation[i], Block: blk.Header.Number})
	}
	o.sealedMu.Lock()
	close(o.sealed)
	o.sealed = make(chan struct{})
	o.sealedMu.Unlock()
	return nil
}

// Addr returns the server's bound address.
func (o *Orderer) Addr() string { return o.srv.Addr() }

// Chain exposes the sealed chain (tests, tools).
func (o *Orderer) Chain() *ledger.Chain { return o.svc.Chain() }

// Raft exposes the Raft member whose stream the orderer folds; its
// committed log is every envelope the orderer sequenced, for a replay to
// read back.
func (o *Orderer) Raft() *transport.RaftService { return o.raft }

// Err returns the node's first fatal error, nil while healthy.
func (o *Orderer) Err() error {
	o.errMu.Lock()
	defer o.errMu.Unlock()
	return cmp.Or(o.svc.Err(), o.readErr)
}

// Close shuts the process down: stop accepting, close every conn (delivery
// streams unblock), stop the ordering service.
func (o *Orderer) Close() error {
	o.closeOnce.Do(func() {
		close(o.done)
		_ = o.srv.Close()
		o.svc.Close()
	})
	return nil
}

// sealedWait returns the channel closed at the next seal.
func (o *Orderer) sealedWait() <-chan struct{} {
	o.sealedMu.Lock()
	defer o.sealedMu.Unlock()
	return o.sealed
}

// handle serves one connection: a request/response loop that hands off to
// the streaming path when the peer subscribes.
func (o *Orderer) handle(c *transport.Conn) {
	for {
		typ, payload, err := c.Recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgSubmit, wire.MsgCommitment, wire.MsgDisclosure:
			o.handleSubmit(c, typ, payload)
		case wire.MsgResultPoll:
			o.answerResult(c, protocol.TxID(payload))
		case wire.MsgSubscribe:
			sub, err := wire.DecodeSubscribe(payload)
			if err != nil {
				return
			}
			// A subscriber sends nothing after its Subscribe, but a frame it
			// does send (a duplicating link) is read and dropped: unread, it
			// would block the subscriber's side of an in-memory pipe.
			go func() {
				for _, _, err := c.Recv(); err == nil; _, _, err = c.Recv() {
				}
			}()
			o.streamBlocks(c, sub.From)
			return // the stream owns the connection until it dies
		case wire.MsgStatusReq:
			blocks, tip, committed := o.svc.Chain().Status()
			st := wire.Status{
				Role:        "orderer",
				Name:        o.name,
				Blocks:      blocks,
				TipHash:     tip,
				Term:        o.raft.Term(),
				Leader:      o.leaderHint(),
				CommittedTx: committed,
			}
			_ = c.Send(wire.MsgStatus, wire.EncodeStatus(st))
		case wire.MsgTraceReq:
			_ = c.Send(wire.MsgTraceDump, wire.EncodeTraceDump(o.tracer.Dump()))
		case wire.MsgProfileReq:
			serveProfile(c, payload, o.done)
		default:
			// Unknown request: answer with an error rather than going mute,
			// then drop the conn (the peer is confused or newer than us).
			_ = c.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{Err: fmt.Sprintf("unexpected %v", typ)}))
			return
		}
	}
}

// resultWaitBound is how long a request may stay parked on a result. The
// handler does not read its connection while parked, so the bound is what
// reclaims the handler of a client that died, and what sends a client stuck
// on a replica that will never seal the transaction to another one. It sits
// far above a healthy submit→seal time (one cut timer, plus an election after
// a leader loss), so a live client's request is answered by a wake-up.
const resultWaitBound = 2 * time.Second

// answerResult answers an accepted submit — or a bare result request for a
// TxID, which any replica serves without the transaction being re-sent —
// with the transaction's fate; Found is false when awaitResult gave up.
func (o *Orderer) answerResult(c *transport.Conn, id protocol.TxID) {
	res, ok := o.awaitResult(id)
	_ = c.Send(wire.MsgResult, wire.EncodeResult(wire.Result{
		Found: ok, TxID: string(res.TxID), Code: res.Code, Block: res.Block,
	}))
}

// awaitResult returns a transaction's fate: at once if it has resolved,
// otherwise after parking until the result store wakes it. ok is false when
// the bound elapsed or the orderer is closing first.
func (o *Orderer) awaitResult(id protocol.TxID) (TxResult, bool) {
	res, parked := o.results.getOrPark(id)
	if parked == nil {
		return res, true
	}
	bound := time.NewTimer(resultWaitBound)
	defer bound.Stop()
	select {
	case res := <-parked:
		return res, true
	case <-bound.C:
	case <-o.done:
	}
	if !o.results.unpark(id, parked) {
		return <-parked, true
	}
	return TxResult{}, false
}

// handleSubmit hands a transaction to the ordering service and answers with
// its result; a hash commitment is answered with an OK ack once accepted, and
// its disclosure like a submit. What the service does not accept — an
// undecodable payload, a refusal, a submit to a Raft follower — gets a
// MsgAck with the error instead, at once.
func (o *Orderer) handleSubmit(c *transport.Conn, typ wire.MsgType, payload []byte) {
	var env consensus.Envelope
	var err error
	if typ == wire.MsgCommitment {
		env.Commitment, err = wire.DecodeCommitment(payload)
	} else if env.Tx, err = wire.DecodeTransaction(payload); err == nil {
		o.tracer.Record(string(env.Tx.ID), trace.StageSubmit, 0)
		// DecodeTransaction precomputed the key caches, so the schedulers see
		// exactly what an in-process submit would hand them. The payload,
		// read at its exact size, is the one copy of the transaction the
		// orderer keeps: the Raft log's entry and the sealed chain's.
		env.TxBytes = payload
		env.SubmittedBy, env.Disclosure = env.Tx.ClientID, typ == wire.MsgDisclosure
	}
	if err == nil {
		err = o.svc.Submit(env)
	}
	if err != nil {
		ack := wire.Ack{Err: err.Error()}
		var nl consensus.ErrNotLeader
		if errors.As(err, &nl) {
			// Not this member's job: redirect the client to the leader's
			// client-facing address (empty while an election is in flight —
			// the client rotates until a leader emerges).
			ack.NotLeader, ack.Leader = true, o.redirects[nl.LeaderID]
		}
		_ = c.Send(wire.MsgAck, wire.EncodeAck(ack))
		return
	}
	if env.Tx == nil {
		_ = c.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{OK: true}))
		return
	}
	// A raft Submit returns once the entry is quorum-durable in the
	// replicated log — the raft-commit stage boundary.
	o.tracer.Record(string(env.Tx.ID), trace.StageRaftCommit, 0)
	o.answerResult(c, env.Tx.ID)
}

// leaderHint maps the raft leader's member address to its client-facing
// address: its redirect, this orderer's own address when it leads, else the
// raw raft address.
func (o *Orderer) leaderHint() string {
	leader := o.raft.Leader()
	if addr, ok := o.redirects[leader]; ok {
		return addr
	}
	if leader == o.name {
		return o.Addr()
	}
	return leader
}

// streamBlocks walks the sealed chain from block from+1, sending each block
// and waiting for the next seal when it reaches the tip. It sends the frame
// the chain keeps (ledger.Chain.Frame): spliced once at the seal, or read
// back from the chain's file for a block behind its window. A block it
// cannot read back fails the orderer and ends the stream. Slow consumers
// exert backpressure only on their own stream; the ordering pipeline never
// waits for a peer.
func (o *Orderer) streamBlocks(c *transport.Conn, from uint64) {
	chain := o.svc.Chain()
	next := from + 1
	for {
		// Fetch the wakeup channel BEFORE probing the chain: a seal landing
		// between a miss and the wait would otherwise be signalled on the
		// old channel and lost, stalling the stream until the next seal.
		wait := o.sealedWait()
		frame, ok, err := chain.Frame(next)
		if err != nil {
			o.errMu.Lock()
			o.readErr = cmp.Or(o.readErr, err)
			o.errMu.Unlock()
			return
		}
		if ok {
			if err := c.Send(wire.MsgBlock, frame); err != nil {
				return // subscriber went away; it will redial and resubscribe
			}
			next++
			continue
		}
		select {
		case <-wait:
		case <-o.done:
			return
		}
	}
}
