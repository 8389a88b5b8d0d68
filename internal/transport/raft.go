package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/wire"
)

// RaftService runs one member of a Raft ordering cluster over TCP, turning
// the pure consensus.RaftCore into a consensus.Service: Submit appends to
// the replicated log and returns once the entry is committed by a quorum
// (so an acknowledged submission survives any minority of crashes), and
// Subscribe delivers the committed prefix from offset zero — Kafka's replay
// semantics — and every replica's subscription yields the identical stream,
// which is what lets every orderer process seal byte-identical blocks. A
// standalone orderer runs a group of one, which leads from StartRaft on and
// commits each entry as it appends it.
//
// Networking is message passing, not RPC: each member dials every peer and
// keeps one outbound connection per peer, carrying its requests out and the
// peer's responses back; the peer's requests arrive on this member's server
// connections, answered in place. Every protocol message is idempotent and
// term-guarded, so a dropped frame costs one retransmission interval, and
// duplicated or reordered frames are no-ops — the property the FaultConn
// tests lean on.
//
// Each peer has one sender goroutine owning its connection, and it is the
// only place an AppendEntries is built: woken by the tick, a reject, a new
// leader's no-op or a Submit that is waited on at commit (a cut marker or a
// hash commitment), it sends everything past the follower's sent cursor in
// one request (up to the core's batch bound), splicing in each entry's
// transaction bytes, or an empty heartbeat if the follower got nothing for an
// interval or must learn that such an entry committed. A transaction's
// entry wakes no sender: it rides the next tick, or the next marker if that
// comes first. The cursor rewinds on a reject, and after an interval in
// which the follower neither answered nor was sent entries — which covers a
// frame that was lost.
//
// Liveness is clock-driven: a follower that hears nothing for a randomized
// election timeout in [T, 2T) starts an election, and a candidate re-sends
// its RequestVote on every tick until it wins, loses or times out. A member
// that has never seen a term campaigns first at its rank in Cluster ×
// Heartbeat, so a fresh cluster elects as soon as a quorum listens; a member
// with no peers elects itself before StartRaft returns. The
// timing rules live here, the transition rules in RaftCore — the lock (mu)
// serializes every core access.
//
// The log holds each transaction as its canonical bytes (Envelope.TxBytes),
// the bytes it arrived in; the decoded transaction is appended without. A
// member keeps the transaction it decoded — the leader's node at ingress, a
// follower on receipt — until a subscription delivers its entry, so each
// member decodes it once on its way to the orderer; a subscription that
// comes later decodes it from the bytes.
//
// Only a hot tail of the log stays on the heap: once the commit index is
// hotEntries and a chunk past the last compaction, the entries more than
// hotEntries behind it move to a cold log in a Spill (an unlinked, unsynced
// file, in Dir or the temporary directory), in one write, with whatever
// held kept for them. A follower or a subscription behind the tail
// reads them back from there; a failed read fails the service (Err).
type RaftService struct {
	cfg  RaftConfig
	core *consensus.RaftCore
	srv  *Server

	mu       sync.Mutex
	closed   bool
	deadline time.Time  // election deadline (followers/candidates)
	rng      *rand.Rand // election jitter; guarded by mu
	last     string     // last observed leader ID, for failover counting
	vote     []byte     // the current candidacy's RequestVote, re-sent each tick

	// held maps a log index at or past undelivered — the first index no
	// subscription has delivered yet — to the decoded transaction of the
	// entry of that term; encodes counts the transactions Submit encoded.
	held        map[uint64]heldTx
	undelivered uint64
	encodes     uint64

	cold      *coldLog
	compactAt uint64 // the commit index at which to compact next
	err       error  // the failure that stopped the service

	waiters  []*raftWaiter // parked Submits, in index order
	commit   uint64        // the commit index waiters and feeders were woken for
	advanced chan struct{} // closed and replaced when the commit index advances

	peers map[string]*raftPeer   // fixed once StartRaft returns
	conns map[FrameConn]struct{} // every conn a goroutine may block on

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// RaftConfig configures one cluster member.
type RaftConfig struct {
	// ID is this member's identity: its Raft address, as listed in Cluster
	// and dialed by peers.
	ID string
	// Listen is the bind address; defaults to ID (use a pre-reserved
	// ephemeral port in tests, where bind and advertised address differ).
	Listen string
	// Cluster is the full membership (Raft addresses, including ID). A
	// fresh member's position in it sets its first election deadline.
	Cluster []string
	// Dir, when non-empty, persists term and vote across restarts (the
	// paper's durable state; the log itself is rebuilt from the leader), and
	// holds the unlinked file of the log's cold prefix, which goes to the
	// temporary directory otherwise.
	Dir string
	// ElectionTimeout is the base T of the randomized [T, 2T) election
	// timer. Default 250ms.
	ElectionTimeout time.Duration
	// Heartbeat is the tick: the interval on which transaction entries are
	// sent, after which an idle follower is sent a heartbeat, and a silent
	// one its unacknowledged entries again. Default T/10.
	Heartbeat time.Duration
	// SubmitTimeout bounds how long Submit waits for quorum commit.
	// Default 15s.
	SubmitTimeout time.Duration
	// Dial overrides outbound connection establishment (fault injection
	// seam). Default: transport.Dial.
	Dial func(addr string) (FrameConn, error)
	// Metrics, when set, counts elections and failovers.
	Metrics *metrics.ConsensusMetrics
	// Seed drives the election-jitter rng; 0 derives one from the clock
	// and the member ID.
	Seed int64
}

// hotEntries is how many committed entries a member keeps on its heap
// behind the commit index; the ones behind them are in the cold log. The
// commit index moves compactChunk entries between compactions, so each
// write to the cold log carries that many.
const (
	hotEntries   = 1024
	compactChunk = hotEntries / 4
)

// heldTx is the decoded transaction of the log entry of term term.
type heldTx struct {
	term uint64
	tx   *protocol.Transaction
}

// raftWaiter is one parked Submit: ch closes once the commit index reaches
// idx or the submitter can no longer be answered from here.
type raftWaiter struct {
	idx, term uint64
	ch        chan struct{}
}

// raftLabels tag the driver's goroutines in a node's profiles.
var raftLabels = pprof.Labels("goroutine", "raft")

// raftPeer is the outbound side of one peering, served by its sender.
type raftPeer struct {
	addr  string
	votes chan []byte   // RequestVote frames; dropped when full (a tick re-sends)
	wake  chan struct{} // a pending wake-up for the sender

	// Guarded by RaftService.mu: since the last tick, whether the sender
	// sent entries (busy) and whether the follower answered (heard); and
	// whether a heartbeat is due.
	busy, heard, heartbeat bool
}

// kick wakes the peer's sender unless a wake-up is already pending.
func (p *raftPeer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// StartRaft boots a cluster member: restores durable state, starts the
// Raft server, the per-peer senders, and the tick loop.
func StartRaft(cfg RaftConfig) (*RaftService, error) {
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 250 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.ElectionTimeout / 10
		if cfg.Heartbeat < 5*time.Millisecond {
			cfg.Heartbeat = 5 * time.Millisecond
		}
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 15 * time.Second
	}
	if cfg.Listen == "" {
		cfg.Listen = cfg.ID
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (FrameConn, error) { return Dial(addr) }
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
		for _, b := range []byte(cfg.ID) {
			seed = seed*131 + int64(b)
		}
	}

	core, err := consensus.NewRaftCore(cfg.ID, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s := &RaftService{
		cfg:         cfg,
		core:        core,
		cold:        &coldLog{file: kvstore.Spill{Dir: cfg.Dir}},
		compactAt:   hotEntries + compactChunk,
		rng:         rand.New(rand.NewSource(seed)),
		held:        make(map[uint64]heldTx),
		undelivered: 1,
		advanced:    make(chan struct{}),
		peers:       make(map[string]*raftPeer),
		conns:       make(map[FrameConn]struct{}),
		done:        make(chan struct{}),
	}

	core.Cold = s.cold
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("transport: raft state dir: %w", err)
		}
		term, vote, err := loadRaftState(s.statePath())
		if err != nil {
			return nil, err
		}
		core.Restore(term, vote)
		core.Persist = func(term uint64, vote string) {
			// Called under mu, before any message reveals the new state —
			// a granted vote must survive a crash or the replica could vote
			// twice in one term.
			if err := saveRaftState(s.statePath(), term, vote); err != nil {
				panic(fmt.Sprintf("transport: raft persist: %v", err))
			}
		}
	}

	// Every goroutine of the driver — the server's accept loop and its
	// handlers, the senders and their read loops, the tick loop — carries
	// the profile label goroutine=raft.
	pprof.Do(context.Background(), raftLabels, func(context.Context) {
		s.srv, err = Listen(cfg.Listen, s.serveConn)
		if err != nil {
			return
		}
		for _, addr := range core.Others() {
			// Room for the ticks' re-sends while a large append is being sent.
			p := &raftPeer{addr: addr, votes: make(chan []byte, 16), wake: make(chan struct{}, 1)}
			s.peers[addr] = p
			s.wg.Add(1)
			go s.sender(p)
		}
		s.mu.Lock()
		switch {
		case len(s.peers) == 0:
			// A group of one: its self-vote is the quorum, so it leads, and
			// a Submit commits, from the moment StartRaft returns.
			core.StartElection()
			s.noteLocked()
		case core.Term() == 0:
			// Never in a term, so no leader can be sitting that this member
			// knows of: campaign at its rank, the first member at once.
			rank := 0
			for rank < len(cfg.Cluster) && cfg.Cluster[rank] != cfg.ID {
				rank++
			}
			s.deadline = time.Now().Add(time.Duration(rank) * cfg.Heartbeat)
		default:
			s.resetDeadlineLocked()
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.tick()
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *RaftService) statePath() string { return filepath.Join(s.cfg.Dir, "raft-state") }

// saveRaftState writes term and vote durably: temp, fsync, rename, fsync dir.
func saveRaftState(path string, term uint64, vote string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteString(strconv.FormatUint(term, 10) + "\n" + vote + "\n")
	if err := errors.Join(err, f.Sync(), f.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return kvstore.SyncDir(filepath.Dir(path))
}

// loadRaftState reads state saved by saveRaftState — exactly a term line and
// a vote line; anything else is refused. A missing file is a fresh member.
func loadRaftState(path string) (uint64, string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, "", nil
	}
	if err != nil {
		return 0, "", fmt.Errorf("transport: raft state: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) != 3 || lines[2] != "" {
		return 0, "", fmt.Errorf("transport: raft state %s: malformed", path)
	}
	term, err := strconv.ParseUint(lines[0], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("transport: raft state %s: %w", path, err)
	}
	return term, lines[1], nil
}

// Addr returns the bound Raft address (useful when Listen used port 0).
func (s *RaftService) Addr() string { return s.srv.Addr() }

// resetDeadlineLocked draws a fresh randomized election deadline.
func (s *RaftService) resetDeadlineLocked() {
	t := s.cfg.ElectionTimeout
	s.deadline = time.Now().Add(t + time.Duration(s.rng.Int63n(int64(t))))
}

// noteLocked runs after every core transition: failover counting, and the
// wake-ups the transition is owed — parked submits and feeders when the
// commit index advanced, every sender when that commits an entry other than
// a transaction (followers seal a block when they learn its marker
// committed, which should not wait for the tick), and every parked submit
// when this member no longer leads the term it appended in.
func (s *RaftService) noteLocked() {
	cur := s.core.LeaderID()
	if cur != "" && cur != s.last {
		if s.last != "" && s.cfg.Metrics != nil {
			s.cfg.Metrics.Failovers.Inc()
		}
		s.last = cur
	}
	if c := s.core.CommitIndex(); c > s.commit {
		if s.core.Role() == consensus.RoleLeader {
			// Past the last commit index noted, every entry is hot.
			es, err := s.core.Entries(s.commit+1, c)
			if err != nil {
				s.failLocked(err)
			}
			for _, e := range es {
				if e.Env.TxBytes == nil {
					for _, p := range s.peers {
						p.heartbeat = true
						p.kick()
					}
					break
				}
			}
		}
		s.commit = c
		n := 0
		for n < len(s.waiters) && s.waiters[n].idx <= c {
			close(s.waiters[n].ch)
			n++
		}
		s.waiters = s.waiters[n:]
		close(s.advanced)
		s.advanced = make(chan struct{})
		if c >= s.compactAt {
			s.compactLocked()
		}
	}
	if len(s.waiters) > 0 && (s.core.Role() != consensus.RoleLeader || s.core.Term() != s.waiters[0].term) {
		s.releaseWaitersLocked()
	}
}

// compactLocked moves the committed entries more than the hot tail behind
// the commit index to the cold log, and drops the decoded transactions held
// for them: a subscription that delivers them later decodes their bytes. A
// failed write leaves them hot until the commit index has moved another
// chunk.
func (s *RaftService) compactLocked() {
	if err := s.core.Compact(s.commit - hotEntries); err != nil {
		s.compactAt = s.commit + compactChunk
		return
	}
	s.compactAt = s.core.ColdIndex() + hotEntries + compactChunk
	for ; s.undelivered <= s.core.ColdIndex(); s.undelivered++ {
		delete(s.held, s.undelivered)
	}
}

// failLocked records the service's first failure and wakes every
// subscription, which ends its stream there.
func (s *RaftService) failLocked(err error) {
	if s.err != nil {
		return
	}
	s.err = fmt.Errorf("transport: raft %s: %w", s.cfg.ID, err)
	close(s.advanced)
	s.advanced = make(chan struct{})
}

// Err implements consensus.Service.
func (s *RaftService) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// releaseWaitersLocked wakes every parked Submit to re-check its entry.
func (s *RaftService) releaseWaitersLocked() {
	for _, w := range s.waiters {
		close(w.ch)
	}
	s.waiters = nil
}

// holdLocked keeps the decoded transaction of the entry at index i, of
// term term, for the first subscription to deliver it.
func (s *RaftService) holdLocked(i, term uint64, tx *protocol.Transaction) {
	if tx != nil && i >= s.undelivered {
		s.held[i] = heldTx{term, tx}
	}
}

// takeLocked hands over the decoded transaction kept for the entry at index
// i, of term term, as a subscription delivers it; nil when there is none,
// and for every later subscription. One kept for an entry a later leader
// replaced is dropped here too.
func (s *RaftService) takeLocked(i, term uint64) *protocol.Transaction {
	if i < s.undelivered {
		return nil
	}
	h := s.held[i]
	delete(s.held, i)
	s.undelivered = i + 1
	if h.term != term {
		return nil
	}
	return h.tx
}

// trackConn registers a connection for teardown on Close; it reports false
// (and closes the conn) if the service is already closing.
func (s *RaftService) trackConn(c FrameConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *RaftService) untrackConn(c FrameConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// sender serves one peer, owning the outbound connection: it sends the
// RequestVotes queued for the peer and, whenever it is woken, the
// AppendEntries the follower is due, dialing on demand and starting a read
// loop for the peer's responses. A frame that cannot be sent is lost; the
// vote re-send and the silent-interval rewind regenerate it.
func (s *RaftService) sender(p *raftPeer) {
	defer s.wg.Done()
	var conn FrameConn
	drop := func() {
		if conn != nil {
			s.untrackConn(conn)
			_ = conn.Close()
			conn = nil
		}
	}
	defer drop()
	send := func(t wire.MsgType, payload []byte) bool {
		if conn == nil {
			nc, err := s.cfg.Dial(p.addr)
			if err != nil {
				return false
			}
			if !s.trackConn(nc) {
				return false
			}
			conn = nc
			s.wg.Add(1)
			go s.readLoop(nc)
		}
		if err := conn.Send(t, payload); err != nil {
			drop()
			return false
		}
		return true
	}
	for {
		select {
		case <-s.done:
			return
		case vote := <-p.votes:
			send(wire.MsgRaftVote, vote)
			continue
		case <-p.wake:
		}
		for {
			s.mu.Lock()
			req, ok := s.appendDueLocked(p)
			s.mu.Unlock()
			if !ok {
				break
			}
			if !send(wire.MsgRaftAppend, wire.EncodeRaftAppend(&req)) {
				// Known lost: the next tick sends it again.
				s.mu.Lock()
				s.core.Rewind(p.addr)
				p.busy = false
				s.mu.Unlock()
				break
			}
			if len(req.Entries) == 0 {
				break
			}
		}
	}
}

// appendDueLocked builds the AppendEntries a follower is due, if any: the
// entries past its sent cursor, else a heartbeat if one is due.
func (s *RaftService) appendDueLocked(p *raftPeer) (consensus.AppendRequest, bool) {
	if s.closed || s.err != nil || s.core.Role() != consensus.RoleLeader || !(s.core.Behind(p.addr) || p.heartbeat) {
		return consensus.AppendRequest{}, false
	}
	p.heartbeat = false
	req, err := s.core.AppendRequestFor(p.addr)
	if err != nil {
		s.failLocked(err)
		return consensus.AppendRequest{}, false
	}
	if len(req.Entries) > 0 {
		p.busy = true
	}
	return req, true
}

// readLoop consumes a connection until it breaks, feeding each frame to the
// dispatcher (on outbound connections these are the peer's responses).
func (s *RaftService) readLoop(conn FrameConn) {
	defer s.wg.Done()
	for {
		t, payload, err := conn.Recv()
		if err != nil {
			return
		}
		s.handle(t, payload, conn)
	}
}

// serveConn handles one inbound connection (a peer's requests; responses go
// back on the same connection).
func (s *RaftService) serveConn(c *Conn) {
	if !s.trackConn(c) {
		return
	}
	defer s.untrackConn(c)
	for {
		t, payload, err := c.Recv()
		if err != nil {
			return
		}
		s.handle(t, payload, c)
	}
}

// wonLocked starts a new leader's replication: its no-op lies past every
// follower's cursor, so each sender announces the leadership at once.
func (s *RaftService) wonLocked() {
	for _, p := range s.peers {
		p.busy, p.heard, p.heartbeat = false, false, false
		p.kick()
	}
}

// handle dispatches one protocol frame. reply is the connection the frame
// arrived on; requests are answered on it.
func (s *RaftService) handle(t wire.MsgType, payload []byte, reply FrameConn) {
	switch t {
	case wire.MsgRaftVote:
		req, err := wire.DecodeRaftVote(payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		resp := s.core.HandleVote(req)
		if resp.Granted {
			// Granting a vote concedes the current timeout window.
			s.resetDeadlineLocked()
		}
		s.noteLocked()
		s.mu.Unlock()
		if reply != nil {
			_ = reply.Send(wire.MsgRaftVoteResp, wire.EncodeRaftVoteResp(resp))
		}

	case wire.MsgRaftVoteResp:
		resp, err := wire.DecodeRaftVoteResp(payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.core.HandleVoteResponse(resp) {
			s.wonLocked()
		}
		s.noteLocked()
		s.mu.Unlock()

	case wire.MsgRaftAppend:
		req, err := wire.DecodeRaftAppend(payload)
		if err != nil {
			return
		}
		// The log takes the entries' bytes; their decoded transactions are
		// held for the subscription.
		txs := make([]*protocol.Transaction, len(req.Entries))
		for i := range req.Entries {
			txs[i], req.Entries[i].Env.Tx = req.Entries[i].Env.Tx, nil
		}
		s.mu.Lock()
		resp := s.core.HandleAppend(*req)
		if req.Term == s.core.Term() {
			// Heard from the legitimate leader: hold the election timer.
			s.resetDeadlineLocked()
		}
		for i, e := range req.Entries {
			if idx := req.PrevIndex + 1 + uint64(i); resp.Success && s.core.TermAt(idx) == e.Term {
				s.holdLocked(idx, e.Term, txs[i])
			}
		}
		s.noteLocked()
		s.mu.Unlock()
		if reply != nil {
			_ = reply.Send(wire.MsgRaftAppendResp, wire.EncodeRaftAppendResp(resp))
		}

	case wire.MsgRaftAppendResp:
		resp, err := wire.DecodeRaftAppendResp(payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.core.HandleAppendResponse(resp)
		if p := s.peers[resp.From]; p != nil && s.core.Role() == consensus.RoleLeader {
			p.heard = true
			if !resp.Success && s.core.Behind(resp.From) { // the reject rewound the cursor
				p.kick()
			}
		}
		s.noteLocked()
		s.mu.Unlock()
	}
}

// tick drives the clocks: the leader's transaction entries, idle
// heartbeats and silent-follower rewinds, a candidate's vote re-send, and
// follower election timeouts.
func (s *RaftService) tick() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		switch {
		case s.core.Role() == consensus.RoleLeader:
			for _, addr := range s.core.Others() {
				p := s.peers[addr]
				if !p.heard && !p.busy {
					// Silent for an interval with entries unacknowledged:
					// the frame carrying them, or its answer, was lost.
					s.core.Rewind(addr)
				}
				p.heartbeat = !p.busy
				p.busy, p.heard = false, false
				p.kick()
			}
		case time.Now().After(s.deadline):
			// Never a group of one: it leads from StartRaft on.
			req := s.core.StartElection()
			if m := s.cfg.Metrics; m != nil {
				m.Elections.Inc()
			}
			s.resetDeadlineLocked()
			s.vote = wire.EncodeRaftVote(req)
			s.sendVoteLocked()
		case s.core.Role() == consensus.RoleCandidate:
			// A RequestVote lost, or sent before its peer listened: re-send
			// it until the election is won, lost or timed out (§5.2).
			s.sendVoteLocked()
		}
		s.noteLocked()
		s.mu.Unlock()
	}
}

// sendVoteLocked queues the current RequestVote for every peer, dropping it
// for a peer whose queue is full (the next tick sends it again).
func (s *RaftService) sendVoteLocked() {
	for _, p := range s.peers {
		select {
		case p.votes <- s.vote:
		default:
		}
	}
}

// Submit implements consensus.Service with commit-wait semantics: a nil
// return means the entry is committed on a quorum and will appear in every
// replica's stream — the acknowledgement the zero-loss chaos assertion is
// built on. Followers refuse with consensus.ErrNotLeader (the node layer
// turns it into a client redirect). The log takes the transaction's bytes,
// which every follower is sent; a transaction handed in without them is
// encoded here, outside the lock, once. An envelope carrying a transaction
// is sent on the next tick, with every other entry appended by then; any
// other envelope wakes the senders at once.
func (s *RaftService) Submit(env consensus.Envelope) error {
	encoded := env.Tx != nil && env.TxBytes == nil
	if encoded {
		env.TxBytes = wire.EncodeTransaction(env.Tx)
	}
	tx := env.Tx
	env.Tx = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("transport: raft service closed")
	}
	if s.err != nil {
		return s.err
	}
	idx, err := s.core.Append(env)
	if err != nil {
		return err
	}
	if encoded {
		s.encodes++
	}
	s.holdLocked(idx, s.core.Term(), tx)
	if s.core.CommitIndex() >= idx {
		// A group of one commits at append: nothing to send or wait for.
		s.noteLocked()
		return nil
	}
	w := &raftWaiter{idx: idx, term: s.core.Term(), ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	if env.TxBytes == nil {
		for _, p := range s.peers {
			p.kick()
		}
	}
	s.mu.Unlock()
	timer := time.NewTimer(s.cfg.SubmitTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
	case <-timer.C:
	case <-s.done:
	}
	s.mu.Lock()
	switch {
	case s.core.CommitIndex() >= idx:
		if s.core.TermAt(idx) == w.term {
			return nil
		}
		// Overwritten by a newer leader's log: not committed here.
		return consensus.ErrNotLeader{LeaderID: s.core.LeaderID()}
	case s.core.Role() != consensus.RoleLeader || s.core.Term() != w.term:
		// Lost leadership mid-wait. The entry may yet commit, but we can no
		// longer promise it; the client's retry path resubmits and the
		// orderer's dedup horizon absorbs the duplicate.
		return consensus.ErrNotLeader{LeaderID: s.core.LeaderID()}
	case s.closed:
		return fmt.Errorf("transport: raft service closed")
	}
	// Timed out: a waiter is woken before that only by the cases above.
	for i, o := range s.waiters {
		if o == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	return fmt.Errorf("transport: raft submit: no quorum within %s", s.cfg.SubmitTimeout)
}

// Subscribe implements consensus.Service: the committed prefix from offset
// zero plus the live tail, a Kafka consumer's contract. Leader no-op entries
// are delivered too — identically on every replica, so the streams stay
// byte-for-byte equal. Each envelope carries its transaction both decoded
// and as bytes: the first subscription to deliver an entry is handed the
// member's decoded transaction, any other decodes the bytes. Close ends
// every stream, however far it has read.
func (s *RaftService) Subscribe() (<-chan consensus.Sequenced, func()) {
	ch := make(chan consensus.Sequenced, 128)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(done) }) }
	s.wg.Add(1)
	// The stream's consumer is an orderer's run loop; the feeder is the
	// driver's, so it is labelled as such rather than inheriting the label.
	go pprof.Do(context.Background(), raftLabels, func(context.Context) {
		defer s.wg.Done()
		defer close(ch)
		next := uint64(1) // 1-based log index
		for {
			s.mu.Lock()
			if s.err != nil {
				s.mu.Unlock()
				return
			}
			if next > s.core.CommitIndex() {
				advanced, closed := s.advanced, s.closed
				s.mu.Unlock()
				if closed {
					return
				}
				select {
				case <-advanced:
					continue
				case <-done:
					return
				case <-s.done:
					return
				}
			}
			entry, err := s.core.Entry(next)
			if err != nil {
				s.failLocked(err)
				s.mu.Unlock()
				return
			}
			env := entry.Env
			env.Tx = s.takeLocked(next, entry.Term)
			s.mu.Unlock()
			if env.TxBytes != nil && env.Tx == nil {
				tx, err := wire.DecodeTransaction(env.TxBytes)
				if err != nil {
					s.mu.Lock()
					s.failLocked(fmt.Errorf("entry %d: %w", next, err))
					s.mu.Unlock()
					return
				}
				env.Tx = tx
			}
			select {
			case ch <- consensus.Sequenced{Offset: next - 1, Env: env}:
				next++
			case <-done:
				return
			case <-s.done:
				return
			}
		}
	})
	return ch, cancel
}

// Close implements consensus.Service: stop the clocks, the server, and
// every connection, then join all goroutines.
func (s *RaftService) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make([]FrameConn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.releaseWaitersLocked()
		s.mu.Unlock()
		close(s.done)
		_ = s.srv.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		s.wg.Wait()
		_ = s.cold.file.Close()
	})
}

// IsLeader reports whether this member currently leads.
func (s *RaftService) IsLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Role() == consensus.RoleLeader
}

// Leader returns the last known leader's Raft address ("" when unknown).
func (s *RaftService) Leader() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.LeaderID()
}

// Term returns the current Raft term.
func (s *RaftService) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Term()
}

// CommitIndex returns the committed log length.
func (s *RaftService) CommitIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.CommitIndex()
}

var _ consensus.Service = (*RaftService)(nil)

// coldLog is a member's cold log prefix in a Spill: entry i is the record
// at offs[i-1], in the AppendEntries entry encoding, so the memory an entry
// keeps once it is cold is its offset.
type coldLog struct {
	file kvstore.Spill
	offs []int64
}

// Append implements consensus.ColdLog: one write for the whole run.
func (l *coldLog) Append(entries []consensus.LogEntry) error {
	n := 0
	for i := range entries {
		n += wire.RaftEntrySize(&entries[i])
	}
	buf := make([]byte, 0, n)
	first := len(l.offs)
	for i := range entries {
		l.offs = append(l.offs, int64(len(buf)))
		buf = wire.AppendRaftEntry(buf, &entries[i])
	}
	at, err := l.file.Append(buf)
	if err != nil {
		l.offs = l.offs[:first]
		return err
	}
	for i := first; i < len(l.offs); i++ {
		l.offs[i] += at
	}
	return nil
}

// Read implements consensus.ColdLog with one read for the run.
func (l *coldLog) Read(from, to uint64) ([]consensus.LogEntry, error) {
	end := l.file.Size()
	if to < uint64(len(l.offs)) {
		end = l.offs[to]
	}
	buf, err := l.file.ReadAt(l.offs[from-1], end-l.offs[from-1])
	if err != nil {
		return nil, err
	}
	return wire.DecodeRaftEntries(buf, int(to-from+1))
}
