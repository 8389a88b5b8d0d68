package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/fabric"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/orderer"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// OrdererConfig parameterizes an ordering process.
type OrdererConfig struct {
	// Options tune the ordering service itself (system, block cutting,
	// dedup, rescue, genesis). Rescue and Genesis must match the
	// peers': the rescue digest is byte-asserted across the cluster, and
	// every replica — orderer shadows and remote peers alike — must install
	// the identical genesis or MVCC verdicts diverge (resolve it once from
	// the scenario registry and hand the same slice to every node config).
	orderer.Options
	// Listen is the TCP address for client submits/result waits and peer
	// subscriptions ("127.0.0.1:0" picks an ephemeral port).
	Listen string
	// PeerNames are the validating peers of the cluster (remote processes).
	// Their deterministic public keys form this process's MSP, so
	// endorsements signed across the wire verify here, and the endorsement
	// policy is any-of them.
	PeerNames []string

	// RaftCluster, when non-empty, joins this process to a wire Raft
	// ordering cluster: submissions go through the replicated log, every
	// member seals byte-identical blocks, and followers answer submits with
	// a NotLeader redirect. Each entry is a member's raft address; RaftID
	// must be one of them (this process's own).
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
	// TraceEvents sizes the always-on stage-tracing ring (events retained;
	// rounded up to a power of two). 0 selects trace.DefaultRingSize;
	// tracing cannot be disabled — it is cheap enough to stay on.
	TraceEvents int
}

// Orderer is a running ordering process: an orderer.Service plus sockets —
// the result store wire clients park on, the block streams peers subscribe
// to, and the status and trace handlers.
type Orderer struct {
	svc     *orderer.Service
	srv     *transport.Server
	results *resultStore

	// raft is the wire consensus service when RaftCluster is configured;
	// nil for a standalone orderer. The ordering service owns its lifecycle
	// (Service.Close closes it), but the node keeps the handle for redirect
	// hints and status reporting.
	raft      *transport.RaftService
	redirects map[string]string
	name      string
	consensus metrics.ConsensusMetrics
	tracer    *trace.Tracer

	// sealed broadcasts "a block was sealed" to delivery streams: each
	// waiter grabs the current channel and blocks until it closes.
	sealedMu sync.Mutex
	sealed   chan struct{}

	done      chan struct{}
	closeOnce sync.Once
}

// StartOrderer boots an ordering process and starts serving.
func StartOrderer(cfg OrdererConfig) (*Orderer, error) {
	if err := nonEmpty(cfg.PeerNames, "PeerNames"); err != nil {
		return nil, err
	}
	o := &Orderer{
		results:   newResultStore(),
		redirects: cfg.RaftRedirects,
		name:      "orderer0",
		sealed:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	var ordering consensus.Service = consensus.NewKafka()
	if len(cfg.RaftCluster) > 0 {
		o.name = cfg.RaftID
		raft, err := transport.StartRaft(transport.RaftConfig{
			ID:              cfg.RaftID,
			Cluster:         cfg.RaftCluster,
			Dir:             cfg.RaftDir,
			ElectionTimeout: cfg.RaftElectionTimeout,
			Dial:            cfg.RaftDial,
			Metrics:         &o.consensus,
		})
		if err != nil {
			return nil, err
		}
		o.raft, ordering = raft, raft
	}
	o.tracer = trace.New(o.name, "orderer", cfg.TraceEvents)
	msp, policy := identity.DevMSP(cfg.PeerNames...)
	svc, err := orderer.New(orderer.Config{
		CoreConfig: orderer.CoreConfig{
			Options:  cfg.Options,
			MSP:      msp,
			Policy:   policy,
			Registry: chaincode.NewRegistry(scenario.AllContracts()...),
		},
		Ordering: ordering,
		// Sealed blocks leave through the subscription streams, and results
		// resolve at seal time from the shadow verdicts — which the
		// agreement property guarantees equal the codes every peer will
		// derive (a peer's validation must byte-match them or fail fatally).
		Deliveries: []transport.Delivery{transport.DeliveryFunc(o.sealedBlock)},
		OnAbort: func(id protocol.TxID, code protocol.ValidationCode) {
			o.results.put(fabric.TxResult{TxID: id, Code: code})
		},
		Tracer: o.tracer,
	})
	if err != nil {
		ordering.Close()
		return nil, err
	}
	o.svc = svc
	svc.Start()
	srv, err := transport.Listen(cfg.Listen, o.handle)
	if err != nil {
		svc.Close()
		return nil, err
	}
	o.srv = srv
	return o, nil
}

// sealedBlock is the service's delivery. It resolves the block's results
// first — the parked submit handlers answer their clients while nothing else
// wants the CPU — and then wakes every subscription stream; the streams read
// sealed blocks (with verdicts) off the service's chain at their own pace,
// catch-up and live tail in the same loop.
func (o *Orderer) sealedBlock(blk *ledger.Block) error {
	for i, tx := range blk.Transactions {
		o.results.put(fabric.TxResult{TxID: tx.ID, Code: blk.Validation[i], Block: blk.Header.Number})
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

// Raft exposes the wire consensus service; nil for a standalone orderer.
func (o *Orderer) Raft() *transport.RaftService { return o.raft }

// Err returns the node's first fatal error, nil while healthy.
func (o *Orderer) Err() error { return o.svc.Err() }

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
		case wire.MsgSubmit:
			o.handleSubmit(c, payload)
		case wire.MsgResultPoll:
			o.answerResult(c, protocol.TxID(payload))
		case wire.MsgSubscribe:
			sub, err := wire.DecodeSubscribe(payload)
			if err != nil {
				return
			}
			o.streamBlocks(c, sub.From)
			return // the stream owns the connection until it dies
		case wire.MsgStatusReq:
			chain := o.svc.Chain()
			st := wire.Status{
				Role:        "orderer",
				Name:        o.name,
				Blocks:      uint64(chain.Len()),
				TipHash:     chain.TipHash(),
				CommittedTx: chain.CommittedTxs(),
			}
			if o.raft != nil {
				st.Term = o.raft.Term()
				st.Leader = o.leaderHint()
			}
			_ = c.Send(wire.MsgStatus, wire.EncodeStatus(st))
		case wire.MsgTraceReq:
			_ = c.Send(wire.MsgTraceDump, wire.EncodeTraceDump(dumpToWire(o.tracer.Dump())))
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
func (o *Orderer) awaitResult(id protocol.TxID) (fabric.TxResult, bool) {
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
	return fabric.TxResult{}, false
}

// handleSubmit hands a transaction to the ordering service and answers with
// its result. What the service does not accept — an undecodable payload, a
// refusal, a submit to a Raft follower — gets a MsgAck instead, at once.
func (o *Orderer) handleSubmit(c *transport.Conn, payload []byte) {
	tx, err := wire.DecodeTransaction(payload)
	if err == nil {
		o.tracer.Record(string(tx.ID), trace.StageSubmit, 0)
		// DecodeTransaction precomputed the key caches, so the schedulers see
		// exactly what an in-process submit would hand them.
		err = o.svc.Submit(consensus.Envelope{Tx: tx, SubmittedBy: tx.ClientID})
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
	if o.raft != nil {
		// A raft Submit returns once the entry is quorum-durable in the
		// replicated log — the raft-commit stage boundary.
		o.tracer.Record(string(tx.ID), trace.StageRaftCommit, 0)
	}
	o.answerResult(c, tx.ID)
}

// leaderHint maps the raft leader's member address to its client-facing
// address, falling back to the raw raft address when no redirect is known.
func (o *Orderer) leaderHint() string {
	leader := o.raft.Leader()
	if leader == "" {
		return ""
	}
	if addr, ok := o.redirects[leader]; ok {
		return addr
	}
	return leader
}

// streamBlocks walks the sealed chain from block from+1, sending each block
// and waiting for the next seal when it reaches the tip.
// Slow consumers exert backpressure only on their own stream; the ordering
// pipeline never waits for a peer.
func (o *Orderer) streamBlocks(c *transport.Conn, from uint64) {
	chain := o.svc.Chain()
	next := from + 1
	for {
		// Fetch the wakeup channel BEFORE probing the chain: a seal landing
		// between a miss and the wait would otherwise be signalled on the
		// old channel and lost, stalling the stream until the next seal.
		wait := o.sealedWait()
		if blk, ok := chain.Get(next); ok {
			if err := c.Send(wire.MsgBlock, wire.EncodeBlock(blk)); err != nil {
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
