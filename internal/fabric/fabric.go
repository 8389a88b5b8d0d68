// Package fabric is the runnable, real-time in-process EOV blockchain: the
// library mode of this repository. It wires the membership service, the
// chaincode runtime, endorsing peers with snapshot reads (Algorithm 1), the
// Kafka-model ordering service, replicated orderers running any of the five
// schedulers, and validating peers committing to hash-chained ledgers — the
// full transaction lifecycle of Section 2.1 over Go channels instead of
// gRPC.
//
// A minimal session:
//
//	net, _ := fabric.NewNetwork(fabric.Options{System: sched.SystemSharp})
//	defer net.Close()
//	client, _ := net.NewClient("alice")
//	res, _ := client.Submit("kv", "put", "greeting", "hello")
//	val, _ := client.Query("kv", "get", "greeting")
package fabric

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/workload"
)

// Options configures a network.
type Options struct {
	// System selects the ordering-phase concurrency control
	// (default sched.SystemSharp).
	System sched.System
	// Peers is the number of endorsing/validating peers (default 4, the
	// paper's setup).
	Peers int
	// Orderers is the number of replicated orderers (default 2). All run
	// the same scheduler on the same consensus stream; the first one
	// delivers blocks.
	Orderers int
	// BlockSize cuts a block at this many pending transactions
	// (default 100).
	BlockSize int
	// BlockTimeout cuts a partial block (default 500ms).
	BlockTimeout time.Duration
	// Contracts to deploy; defaults to the scenario registry's full set
	// (scenario.AllContracts), so a default network can endorse any
	// registered scenario.
	Contracts []chaincode.Contract
	// Genesis, when non-empty, is the block-0 write set every replica
	// installs before the first block seals: peer state databases through
	// workload.SeedGenesis, and each orderer's shadow state at the same
	// workload.GenesisVersion — the two must agree or shadow MVCC verdicts
	// would diverge from peer validation. Scenario-driven deployments fill
	// it from scenario.Scenario.GenesisWrites. Ignored on a DataDir resume
	// whose stored state already contains the genesis.
	Genesis []protocol.WriteItem
	// MaxSpan is Sharp's pruning horizon (default 10).
	MaxSpan uint64
	// CompactEvery enables the orderers' deterministic intern-table epoch
	// compaction: every CompactEvery sealed blocks, each scheduler rebuilds
	// its key-interning state at cut time keeping only keys referenced by
	// retained (above-horizon) entries — bounding orderer memory under
	// unbounded key spaces. Cuts happen at identical consensus-stream
	// positions on every replica, so the rebuilt tables (and all KeyID
	// remappings) are bit-identical across orderers, and a restart through
	// FastForward resumes the same epoch schedule (the trigger is a pure
	// function of sealed block numbers). 0 (default) keeps the pre-PR-4
	// append-only tables.
	CompactEvery uint64
	// SubmitTimeout bounds Client.Submit waiting for a commit
	// (default 10s).
	SubmitTimeout time.Duration
	// HashCommitment enables the Section 3.5 two-phase submission: clients
	// sequence a digest commitment first and disclose the payload after;
	// orderers process disclosures in commitment order, which blinds
	// order-choosing adversaries to transaction contents (see
	// Client.SubmitCommitted).
	HashCommitment bool
	// DataDir, when non-empty, persists peer 0's ledger and latest state in
	// kvstore databases under it; a network booted again on the same
	// directory resumes from the stored chain (crash recovery is inherited
	// from the kvstore WAL).
	DataDir string
	// Ordering, when set, injects an externally built consensus service —
	// typically a transport.RaftService joining this process to a Raft
	// ordering cluster over TCP — instead of the default in-process
	// consensus.Kafka. Every process consuming the same replicated stream
	// seals byte-identical blocks, which is what makes a multi-process
	// ordering cluster interchangeable with the in-process broker. The
	// network takes ownership: Close closes it.
	Ordering consensus.Service
	// DedupHorizon bounds the orderers' duplicate-suppression memory: a
	// TxID first seen while block B was being assembled is forgotten once
	// block B+DedupHorizon seals (default DefaultDedupHorizon). Eviction
	// runs at cut time — a stream-determined position — so the dedup
	// decision stays identical on every replica; the horizon trades
	// replay-protection depth for bounded memory under sustained traffic.
	DedupHorizon uint64
	// ValidationWorkers caps each peer's intra-block validation parallelism
	// (default: GOMAXPROCS divided among the peers, since they all validate
	// a delivered block concurrently).
	ValidationWorkers int
	// RemotePeers, when non-empty, runs the network as an *ordering-only*
	// process: no local peers are built, and the named peers — living in
	// other OS processes — are the validating set. Their deterministic
	// public keys (identity.Deterministic) are registered with the MSP so
	// endorsements signed across the wire verify here, and the endorsement
	// policy is any-of the named peers, exactly as in loopback mode.
	// Sealed blocks leave through attached transport.Delivery
	// implementations (AttachDelivery), and transaction results resolve at
	// seal time from the shadow verdicts — which the agreement property
	// guarantees equal the codes every remote peer will derive. Mutually
	// exclusive with Peers and DataDir.
	RemotePeers []string
	// OnResult, when set, observes every transaction result the lead
	// replica resolves (commits, early aborts, duplicates) — the hook the
	// process-per-node orderer uses to answer and wake wire clients' result
	// requests. Called from pipeline goroutines; implementations must be
	// fast and thread-safe.
	OnResult func(TxResult)
	// Tracer, when set, records stage timestamps (order, seal) for every
	// transaction the lead orderer processes — write-only side telemetry
	// outside the deterministic scope (see internal/trace). Nil disables
	// recording at zero cost.
	Tracer *trace.Tracer
	// Rescue enables post-order speculative re-execution: MVCC-aborted
	// transactions re-run against the block's committed prefix at every
	// replica (orderer shadow and peer committers alike), and the rescued
	// write sets commit under the Rescued verdict. A no-op for systems whose
	// ordering phase already guarantees serializability (they never produce
	// MVCC aborts). Orderers running with rescue keep a value-tracking
	// shadow, trading memory for the re-execution capability.
	Rescue bool
}

func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = sched.SystemSharp
	}
	if len(o.RemotePeers) == 0 && o.Peers == 0 {
		o.Peers = 4
	}
	if o.Orderers == 0 {
		o.Orderers = 2
	}
	if o.BlockSize == 0 {
		o.BlockSize = 100
	}
	if o.BlockTimeout == 0 {
		o.BlockTimeout = 500 * time.Millisecond
	}
	if len(o.Contracts) == 0 {
		o.Contracts = scenario.AllContracts()
	}
	if o.MaxSpan == 0 {
		o.MaxSpan = 10
	}
	if o.SubmitTimeout == 0 {
		o.SubmitTimeout = 10 * time.Second
	}
	if o.DedupHorizon == 0 {
		o.DedupHorizon = DefaultDedupHorizon
	}
	return o
}

// DefaultDedupHorizon is the default Options.DedupHorizon: deep enough that
// a duplicate would have to arrive over a thousand blocks after the
// original to slip through, shallow enough that the dedup map stays bounded
// under sustained million-transaction traffic.
const DefaultDedupHorizon = 1024

// TxResult reports a transaction's fate.
type TxResult struct {
	TxID  protocol.TxID
	Code  protocol.ValidationCode
	Block uint64 // 0 when dropped before the ledger
}

// Committed reports whether the transaction made it into the state —
// validated cleanly or rescued by post-order re-execution.
func (r TxResult) Committed() bool { return r.Code.Committed() }

// Network is a running blockchain network.
type Network struct {
	opts     Options
	msp      *identity.Service
	registry *chaincode.Registry
	policy   identity.Policy
	kafka    consensus.Service
	peers    []*Peer
	orderers []*orderer

	// submission is where endorsed envelopes enter ordering; in-process it
	// is the consensus service itself. deliveries is where the lead
	// orderer's sealed blocks go: the loopback fan-out to local committers
	// (when the network has local peers) plus anything attached later
	// (TCP block streams). Both sides of the seam speak the same
	// interfaces a socket-fed deployment does.
	submission transport.Submission
	deliveryMu sync.RWMutex
	deliveries []transport.Delivery
	waitersMu  sync.Mutex
	waiters    map[protocol.TxID]chan TxResult
	txSeq      uint64
	seqMu      sync.Mutex
	closeOnce  sync.Once
	done       chan struct{}
	wg         sync.WaitGroup
	closers    []interface{ Close() error }

	// ackMu/pendingAcks implement the per-block commit barrier: a result
	// resolves once every peer has committed its block, with the lead
	// peer's validation codes as the authoritative verdicts.
	ackMu       sync.Mutex
	pendingAcks map[uint64]*blockAck

	// Fatal-error plumbing (a poisoned block must not crash the process):
	// the first failure is recorded and fatalCh closed, atomically under
	// errMu; submitters and orderers observe it and stop.
	errMu    sync.Mutex
	fatalErr error
	fatalCh  chan struct{}
}

// blockAck tracks how many peers have committed a block and the lead peer's
// codes for it.
type blockAck struct {
	txs   []*protocol.Transaction
	codes []protocol.ValidationCode
	acks  int
}

// Peer is an endorsing + validating peer with its own state, ledger, and
// pipelined committer.
type Peer struct {
	id        *identity.Identity
	state     *statedb.DB
	chain     *ledger.Chain
	committer *commit.Committer
}

// State exposes the peer's state database (read-only use).
func (p *Peer) State() *statedb.DB { return p.state }

// Chain exposes the peer's ledger.
func (p *Peer) Chain() *ledger.Chain { return p.chain }

// Committer exposes the peer's commit-pipeline stage (stats, idleness).
func (p *Peer) Committer() *commit.Committer { return p.committer }

// NewNetwork boots a network.
func NewNetwork(opts Options) (*Network, error) {
	if len(opts.RemotePeers) > 0 {
		if opts.Peers != 0 {
			return nil, fmt.Errorf("fabric: RemotePeers and Peers are mutually exclusive (a network is ordering-only or has local peers, never both)")
		}
		if opts.DataDir != "" {
			return nil, fmt.Errorf("fabric: DataDir persistence belongs to peer processes, not an ordering-only network")
		}
	}
	opts = opts.withDefaults()
	ordering := opts.Ordering
	if ordering == nil {
		ordering = consensus.NewKafka()
	}
	n := &Network{
		opts:        opts,
		msp:         identity.NewService(),
		registry:    chaincode.NewRegistry(opts.Contracts...),
		kafka:       ordering,
		waiters:     map[protocol.TxID]chan TxResult{},
		done:        make(chan struct{}),
		fatalCh:     make(chan struct{}),
		pendingAcks: map[uint64]*blockAck{},
	}
	n.submission = ordering
	// Ordering-only mode: the validating peers live in other processes.
	// Register their deterministic public keys so endorsements produced
	// across the wire verify against this MSP exactly as local ones would.
	for _, name := range opts.RemotePeers {
		id := identity.Deterministic(name, identity.RolePeer)
		if err := n.msp.Register(name, identity.RolePeer, id.Public()); err != nil {
			return nil, err
		}
	}
	var peerIDs []string
	peerIDs = append(peerIDs, opts.RemotePeers...)
	for i := 0; i < opts.Peers; i++ {
		name := fmt.Sprintf("peer%d", i)
		id, err := n.msp.Enroll(name, identity.RolePeer)
		if err != nil {
			return nil, err
		}
		var (
			stateOpts statedb.Options
			chainKV   *kvstore.DB
		)
		if opts.DataDir != "" && i == 0 {
			// Peer 0 is the durable replica: its ledger blocks and latest
			// state live in kvstore databases under DataDir.
			stateKV, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(opts.DataDir, "state")})
			if err != nil {
				return nil, err
			}
			n.closers = append(n.closers, stateKV)
			stateOpts.Backing = stateKV
			if chainKV, err = kvstore.Open(kvstore.Options{Dir: filepath.Join(opts.DataDir, "blocks")}); err != nil {
				return nil, err
			}
			n.closers = append(n.closers, chainKV)
		}
		state, err := statedb.New(stateOpts)
		if err != nil {
			return nil, err
		}
		chain, err := ledger.NewChain(chainKV)
		if err != nil {
			return nil, err
		}
		// Fresh replicas install the scenario genesis before any block
		// commits; a DataDir resume already holds it (its persisted state or
		// chain is non-empty) and must not re-apply block 0.
		if chain.Len() == 0 && state.Keys() == 0 {
			if err := workload.SeedGenesis(state, opts.Genesis); err != nil {
				return nil, fmt.Errorf("fabric: seeding %s genesis: %w", name, err)
			}
		}
		n.peers = append(n.peers, &Peer{id: id, state: state, chain: chain})
		peerIDs = append(peerIDs, name)
	}
	// The paper's endorsement policy: any single peer endorses
	// (Section 5.1), so any of the peers can spread the load.
	n.policy = identity.AnyPeerOf(peerIDs...)

	for i := 0; i < opts.Orderers; i++ {
		name := fmt.Sprintf("orderer%d", i)
		if _, err := n.msp.Enroll(name, identity.RoleOrderer); err != nil {
			return nil, err
		}
		scheduler, err := sched.New(opts.System, sched.Options{MaxSpan: opts.MaxSpan, CompactEvery: opts.CompactEvery})
		if err != nil {
			return nil, err
		}
		chain, err := ledger.NewChain(nil)
		if err != nil {
			return nil, err
		}
		shadow := validation.NewShadowState()
		if opts.Rescue {
			// Rescue re-executes chaincode at the orderer, which needs the
			// committed values, not just versions.
			shadow = validation.NewValueShadowState()
		}
		// The shadow must agree with the peers' seeded states key for key:
		// an endorsement over a genesis key carries workload.GenesisVersion
		// in its read set, and the shadow validator has to see that same
		// version or its sealed verdict would diverge from peer validation.
		// Seeding precedes replayStoredChain so a resumed chain replays on
		// top of genesis exactly as it originally committed.
		for _, w := range opts.Genesis {
			if w.Delete {
				continue
			}
			shadow.Seed(w.Key, w.Value, workload.GenesisVersion())
		}
		o := &orderer{
			net:       n,
			name:      name,
			scheduler: scheduler,
			chain:     chain,
			deliver:   i == 0, // the lead orderer delivers to peers
			shadow:    shadow,
			rescue:    opts.Rescue && scheduler.NeedsMVCCValidation(),
			vopts: validation.Options{
				MVCC:   scheduler.NeedsMVCCValidation(),
				MSP:    n.msp,
				Policy: n.policy,
			},
			seen:        map[protocol.TxID]bool{},
			seenByBlock: map[uint64][]protocol.TxID{},
			seenFloor:   1,
		}
		if opts.HashCommitment {
			o.broker = NewCommitmentBroker()
		}
		n.orderers = append(n.orderers, o)
	}
	// Every peer gets a pipelined committer: the validation/commit stage of
	// the EOV pipeline, decoupled from ordering by a buffered delivery
	// channel. MVCC runs only for the systems whose ordering phase does not
	// already guarantee serializability (Figure 8).
	mvcc := n.orderers[0].scheduler.NeedsMVCCValidation()
	workers := opts.ValidationWorkers
	if workers == 0 && opts.Peers > 0 {
		// All peers validate the same block concurrently; divide the cores
		// among them rather than oversubscribing by the peer count.
		if workers = runtime.GOMAXPROCS(0) / opts.Peers; workers < 1 {
			workers = 1
		}
	}
	for i, p := range n.peers {
		i, p := i, p
		p.committer = commit.New(commit.Config{
			Name:  fmt.Sprintf("peer%d", i),
			State: p.state,
			Chain: p.chain,
			Validation: commit.Options{
				Options:  validation.Options{MVCC: mvcc, MSP: n.msp, Policy: n.policy},
				Workers:  workers,
				Rescue:   opts.Rescue,
				Registry: n.registry,
			},
			OnCommit: func(blk *ledger.Block, codes []protocol.ValidationCode) {
				n.peerCommitted(i, blk, codes)
			},
			OnError: n.fail,
		})
	}
	// When resuming from disk, adopt the stored chain everywhere before the
	// orderers start consuming the stream.
	if opts.DataDir != "" && n.peers[0].chain.Len() > 0 {
		if err := n.replayStoredChain(); err != nil {
			return nil, err
		}
	}
	// The loopback delivery: the same interface a TCP block stream
	// implements, wired to the local committers' channels.
	if len(n.peers) > 0 {
		n.deliveries = append(n.deliveries, loopbackDelivery{n})
	}
	for _, p := range n.peers {
		p.committer.Start()
	}
	for _, o := range n.orderers {
		n.wg.Add(1)
		go o.run()
	}
	return n, nil
}

// loopbackDelivery fans a sealed block out to every local peer's committer —
// the in-process implementation of the transport seam. Deliver blocks only
// on a full committer queue (backpressure), never errors.
type loopbackDelivery struct{ n *Network }

// Deliver implements transport.Delivery.
func (l loopbackDelivery) Deliver(blk *ledger.Block) error {
	for _, p := range l.n.peers {
		p.committer.Deliver(blk)
	}
	return nil
}

// AttachDelivery adds a consumer for the lead orderer's sealed blocks —
// e.g. the TCP block-stream notifier of a process-per-node orderer. The
// delivery is invoked in block order from the lead orderer's goroutine; a
// returned error is fatal to the network.
func (n *Network) AttachDelivery(d transport.Delivery) {
	n.deliveryMu.Lock()
	n.deliveries = append(n.deliveries, d)
	n.deliveryMu.Unlock()
}

// dispatch hands a sealed block to every attached delivery.
func (n *Network) dispatch(blk *ledger.Block) {
	n.deliveryMu.RLock()
	deliveries := n.deliveries
	n.deliveryMu.RUnlock()
	for _, d := range deliveries {
		if err := d.Deliver(blk); err != nil {
			n.fail(fmt.Errorf("fabric: block %d delivery: %w", blk.Header.Number, err))
			return
		}
	}
}

// SubmitEnvelope feeds an externally built envelope (a transaction decoded
// off the wire, typically) into the ordering service — the Submission side
// of the transport seam. The caller is responsible for having precomputed
// the transaction's key caches.
func (n *Network) SubmitEnvelope(env consensus.Envelope) error {
	if err := n.Err(); err != nil {
		return fmt.Errorf("fabric: network failed: %w", err)
	}
	return n.submission.Submit(env)
}

// peerCommitted is each committer's completion callback. Results resolve on
// the designated lead peer's (peer 0) verdicts, once every peer has
// committed the block — so a Submit that returns implies read-your-writes
// on any peer. The schedulers are NOT fed from here: commit feedback is
// derived deterministically by each orderer's shadow validator at cut time,
// so this barrier only settles client waiters.
func (n *Network) peerCommitted(peerIdx int, blk *ledger.Block, codes []protocol.ValidationCode) {
	num := blk.Header.Number
	n.ackMu.Lock()
	ack := n.pendingAcks[num]
	if ack == nil {
		ack = &blockAck{}
		n.pendingAcks[num] = ack
	}
	ack.acks++
	if peerIdx == 0 {
		ack.txs = blk.Transactions
		ack.codes = codes
	}
	complete := ack.acks == len(n.peers)
	if complete {
		delete(n.pendingAcks, num)
	}
	n.ackMu.Unlock()
	if !complete {
		return
	}
	for i, tx := range ack.txs {
		n.resolve(tx.ID, TxResult{TxID: tx.ID, Code: ack.codes[i], Block: num})
	}
}

// fail records the network's first fatal error and unblocks everyone waiting
// on it. The process stays alive: submitters get the error, orderers and
// committers quiesce.
func (n *Network) fail(err error) {
	n.errMu.Lock()
	if n.fatalErr == nil {
		n.fatalErr = err
		close(n.fatalCh)
	}
	n.errMu.Unlock()
}

// Err returns the first fatal pipeline error, nil while healthy.
func (n *Network) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.fatalErr
}

// Fatal returns a channel closed on the first fatal pipeline error.
func (n *Network) Fatal() <-chan struct{} { return n.fatalCh }

// replayStoredChain distributes peer 0's persisted blocks to the in-memory
// peers — through the same committer apply path live commits use — and to
// the orderers, rebuilding each orderer's shadow version state from the
// stored verdicts, then fast-forwards every scheduler past the stored
// height. Restart semantics are clean-shutdown: nothing was pending across
// the restart, so new transactions (whose snapshots are at or above the
// stored height) cannot conflict with pre-restart history and the
// schedulers may start from an empty dependency graph — but the shadow
// state MUST resume exactly where the peers' state databases do, or the
// first post-restart shadow validation would diverge from peer validation.
func (n *Network) replayStoredChain() error {
	ref := n.peers[0]
	var walkErr error
	ref.chain.ForEach(func(b *ledger.Block) bool {
		if len(b.Validation) != len(b.Transactions) {
			walkErr = fmt.Errorf("fabric: stored block %d missing validation metadata", b.Header.Number)
			return false
		}
		for _, p := range n.peers[1:] {
			if walkErr = p.committer.ReplayStored(b); walkErr != nil {
				return false
			}
		}
		for _, o := range n.orderers {
			blk := *b
			if walkErr = o.chain.Append(&blk); walkErr != nil {
				return false
			}
			// Rescued verdicts carry no write sets in the block: re-derive
			// them by re-running the deterministic rescue phase against the
			// shadow's replayed state, asserting the sealed digest.
			var rescueWrites [][]protocol.WriteItem
			if blockHasRescued(b) {
				if !o.shadow.TracksValues() {
					walkErr = fmt.Errorf("fabric: stored block %d carries rescued verdicts; the network must boot with Rescue enabled to replay it", b.Header.Number)
					return false
				}
				out, err := commit.ReplayRescue(o.shadow, b, n.registry)
				if err != nil {
					walkErr = fmt.Errorf("fabric: %w", err)
					return false
				}
				rescueWrites = out.Writes
			}
			o.shadow.ApplyRescued(b.Header.Number, b.Transactions, b.Validation, rescueWrites)
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	height, _ := ref.chain.Height()
	for _, o := range n.orderers {
		// Dedup buckets resume past the stored chain too, so the first
		// post-restart eviction does not walk empty pre-restart blocks.
		o.seenFloor = height + 1
		if err := o.scheduler.FastForward(height); err != nil {
			return err
		}
	}
	return nil
}

// blockHasRescued reports whether any stored verdict is Rescued.
func blockHasRescued(b *ledger.Block) bool {
	for _, c := range b.Validation {
		if c == protocol.Rescued {
			return true
		}
	}
	return false
}

// Close shuts the network down: the orderers stop consuming consensus, the
// commit pipeline drains every delivered block, and only then do the
// durable stores close.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.kafka.Close()
	})
	n.wg.Wait()
	for _, p := range n.peers {
		p.committer.Close()
	}
	for _, c := range n.closers {
		_ = c.Close()
	}
}

// Peer returns peer i.
func (n *Network) Peer(i int) *Peer { return n.peers[i] }

// Orderers returns the number of orderer replicas.
func (n *Network) Orderers() int { return len(n.orderers) }

// OrdererChain exposes orderer i's sealed chain (agreement checks).
func (n *Network) OrdererChain(i int) *ledger.Chain { return n.orderers[i].chain }

// Height returns the lead peer's committed block height; an ordering-only
// network reports the lead orderer's sealed-chain height instead.
func (n *Network) Height() uint64 {
	if len(n.peers) == 0 {
		h, _ := n.orderers[0].chain.Height()
		return h
	}
	return n.peers[0].state.Height()
}

// WaitIdle blocks until every submitted transaction has been resolved and
// the commit pipeline has drained (every peer's delivery queue empty), or
// the timeout elapses; it reports whether the network went idle. A fatal
// pipeline error returns false immediately — the network has quiesced but
// outstanding transactions will never resolve (see Err).
func (n *Network) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Err() != nil {
			return false
		}
		n.waitersMu.Lock()
		idle := len(n.waiters) == 0
		n.waitersMu.Unlock()
		if idle && n.committersIdle() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// committersIdle reports whether every peer's committer has fully
// processed everything delivered to it.
func (n *Network) committersIdle() bool {
	for _, p := range n.peers {
		if !p.committer.Idle() {
			return false
		}
	}
	return true
}

// awaitResult waits for a submitted transaction's outcome: the commit
// barrier's result, the network's fatal error, or the submit timeout. Both
// submit paths (Submit, SubmitCommitted) share it so the subtle
// committed-result-wins-over-fatal race handling has exactly one copy.
func (n *Network) awaitResult(id protocol.TxID, ch <-chan TxResult) (TxResult, error) {
	deadline := time.Now().Add(n.opts.SubmitTimeout)
	select {
	case res := <-ch:
		return res, nil
	case <-n.fatalCh:
		// The transaction may have resolved around the instant the fatal
		// signal fired; a durably committed result must win over the error.
		if res, ok := n.fatalResult(id, ch, deadline); ok {
			return res, nil
		}
		return TxResult{}, fmt.Errorf("fabric: transaction %s: network failed: %w", id, n.Err())
	case <-time.After(time.Until(deadline)):
		// Same handshake as the fatal path: a result already in flight
		// wins, and otherwise the waiter is removed so it cannot leak.
		if res, ok := n.claimWaiter(id, ch); ok {
			return res, nil
		}
		return TxResult{}, fmt.Errorf("fabric: transaction %s timed out", id)
	}
}

// fatalResult is the fatal-path tail of a submit. The pipeline keeps
// draining after a fatal error — blocks already delivered still commit on
// healthy peers — so first wait (up to SubmitTimeout, preserving Submit's
// latency contract) for the committers to go idle: a transaction in flight
// resolves normally rather than being reported failed after it durably
// commits. Then, resolve deletes the waiter under waitersMu before
// sending, so: absent from the map means a result send is in flight — wait
// for it and report success. Still present after the drain means no result
// is ever coming — remove the waiter so it cannot leak, and report
// failure.
func (n *Network) fatalResult(id protocol.TxID, ch <-chan TxResult, deadline time.Time) (TxResult, bool) {
	// Normally bounded by queue depth × commit latency: committers always
	// make progress (a failed one keeps consuming, applying nothing). The
	// deadline — the submit's original one, so the overall SubmitTimeout
	// contract holds — covers a wedged committer; there the timeout wins.
	for !n.committersIdle() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return n.claimWaiter(id, ch)
}

// claimWaiter settles a submit that is giving up: if resolve already
// claimed the waiter (absent from the map), a result send is guaranteed in
// flight — wait for it and report success. Otherwise remove the waiter so
// it cannot leak, and report that no result is coming.
func (n *Network) claimWaiter(id protocol.TxID, ch <-chan TxResult) (TxResult, bool) {
	n.waitersMu.Lock()
	_, pending := n.waiters[id]
	if pending {
		delete(n.waiters, id)
	}
	n.waitersMu.Unlock()
	if pending {
		return TxResult{}, false
	}
	return <-ch, true
}

// resolve delivers a transaction result to its waiter and the OnResult
// observer. Only lead-replica paths call it, so an observer sees each
// result exactly once.
func (n *Network) resolve(id protocol.TxID, res TxResult) {
	if n.opts.OnResult != nil {
		n.opts.OnResult(res)
	}
	n.waitersMu.Lock()
	ch, ok := n.waiters[id]
	if ok {
		delete(n.waiters, id)
	}
	n.waitersMu.Unlock()
	if ok {
		ch <- res
	}
}

// Endorse is the execution phase on one peer, shared by the in-process
// client and the wire peer's proposal handler: simulate tx's invocation
// against state's latest block snapshot (Algorithm 1), record the snapshot
// and read/write set on tx, and append id's signature over the result. It
// returns the contract's result payload.
func Endorse(state *statedb.DB, id *identity.Identity, registry *chaincode.Registry, tx *protocol.Transaction) ([]byte, error) {
	contract, ok := registry.Get(tx.Contract)
	if !ok {
		return nil, fmt.Errorf("fabric: unknown contract %q", tx.Contract)
	}
	snap := state.LatestSnapshot()
	rwset, result, err := chaincode.SimulateFull(contract, tx.Function, tx.Args, snap)
	if err != nil {
		return nil, fmt.Errorf("fabric: simulation failed: %w", err)
	}
	tx.SnapshotBlock = snap.Block()
	tx.RWSet = rwset
	tx.Endorsements = append(tx.Endorsements, protocol.Endorsement{
		EndorserID: id.ID,
		Signature:  id.Sign(tx.Digest()),
	})
	return result, nil
}
