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
	"fabricsharp/internal/wire"
)

// RaftService runs one member of a Raft ordering cluster over TCP, turning
// the pure consensus.RaftCore into a consensus.Service: Submit appends to
// the replicated log and returns once the entry is committed by a quorum
// (so an acknowledged submission survives any minority of crashes), and
// Subscribe delivers the committed prefix from offset zero with the same
// replay semantics as the in-process Kafka — every replica's subscription
// yields the identical stream, which is what lets every orderer process
// seal byte-identical blocks.
//
// Networking is message passing, not RPC: each member dials every peer and
// keeps one outbound connection per peer, carrying its requests out and the
// peer's responses back; the peer's requests arrive on this member's server
// connections, answered in place. Every protocol message is idempotent and
// term-guarded, so a dropped frame costs one retransmission interval (the
// heartbeat tick regenerates state), and duplicated or reordered frames are
// no-ops — the property the FaultConn tests lean on. Outbound messages are
// fire-and-forget through a bounded per-peer outbox; when a peer is down,
// its outbox drains to the floor and the tick loop keeps regenerating
// fresher messages.
//
// Liveness is clock-driven: a follower that hears nothing for a randomized
// election timeout in [T, 2T) starts an election; the leader heartbeats
// every Heartbeat interval. The timing rules live here, the transition
// rules in RaftCore — the lock (mu) serializes every core access.
type RaftService struct {
	cfg  RaftConfig
	core *consensus.RaftCore
	srv  *Server

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	deadline time.Time  // election deadline (followers/candidates)
	rng      *rand.Rand // election jitter; guarded by mu
	last     string     // last observed leader ID, for failover counting

	peers map[string]*raftPeer
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
	// Cluster is the full membership (Raft addresses, including ID).
	Cluster []string
	// Dir, when non-empty, persists term and vote across restarts (the
	// paper's durable state; the log itself is rebuilt from the leader).
	Dir string
	// ElectionTimeout is the base T of the randomized [T, 2T) election
	// timer. Default 250ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's append/heartbeat interval. Default T/10.
	Heartbeat time.Duration
	// SubmitTimeout bounds how long Submit waits for quorum commit.
	// Default 15s.
	SubmitTimeout time.Duration
	// Dial overrides outbound connection establishment (fault injection
	// seam). Default: transport.Dial.
	Dial func(addr string) (FrameConn, error)
	// Metrics, when set, observes elections, failovers, term, and
	// replication lag.
	Metrics *metrics.ConsensusMetrics
	// Seed drives the election-jitter rng; 0 derives one from the clock
	// and the member ID.
	Seed int64
}

type raftFrame struct {
	t       wire.MsgType
	payload []byte
}

// raftLabels tag the driver's goroutines in a node's profiles.
var raftLabels = pprof.Labels("goroutine", "raft")

// raftPeer is the outbound side of one peering: a bounded outbox drained by
// a sender goroutine that owns the connection.
type raftPeer struct {
	addr string
	out  chan raftFrame
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
		cfg:   cfg,
		core:  core,
		rng:   rand.New(rand.NewSource(seed)),
		peers: make(map[string]*raftPeer),
		conns: make(map[FrameConn]struct{}),
		done:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)

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
			p := &raftPeer{addr: addr, out: make(chan raftFrame, 1024)}
			s.peers[addr] = p
			s.wg.Add(1)
			go s.sender(p)
		}
		s.mu.Lock()
		s.resetDeadlineLocked()
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

// noteLocked refreshes observability state after any core transition:
// failover counting and the term gauge.
func (s *RaftService) noteLocked() {
	if m := s.cfg.Metrics; m != nil {
		m.Term.Set(int64(s.core.Term()))
	}
	cur := s.core.LeaderID()
	if cur != "" && cur != s.last {
		if s.last != "" && s.cfg.Metrics != nil {
			s.cfg.Metrics.Failovers.Inc()
		}
		s.last = cur
	}
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

// sender drains one peer's outbox, owning the outbound connection: dial on
// demand, drop frames while the peer is unreachable (the tick loop
// regenerates), start a read loop for the peer's responses.
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
	for {
		var m raftFrame
		select {
		case <-s.done:
			return
		case m = <-p.out:
		}
		if conn == nil {
			nc, err := s.cfg.Dial(p.addr)
			if err != nil {
				continue // peer down: this frame is lost, later ticks retry
			}
			if !s.trackConn(nc) {
				return
			}
			conn = nc
			s.wg.Add(1)
			go s.readLoop(nc)
		}
		if err := conn.Send(m.t, m.payload); err != nil {
			drop()
		}
	}
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

// enqueueLocked queues a frame for a peer, dropping when the outbox is full
// (the protocol regenerates state; backpressure would deadlock the tick
// loop against a dead peer).
func (s *RaftService) enqueueLocked(addr string, t wire.MsgType, payload []byte) {
	p := s.peers[addr]
	if p == nil {
		return
	}
	select {
	case p.out <- raftFrame{t: t, payload: payload}:
	default:
	}
}

// replicateToAllLocked queues one AppendEntries (entries or heartbeat) per
// follower.
func (s *RaftService) replicateToAllLocked() {
	for _, addr := range s.core.Others() {
		req := s.core.AppendRequestFor(addr)
		s.enqueueLocked(addr, wire.MsgRaftAppend, wire.EncodeRaftAppend(&req))
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
			// Won: announce leadership immediately rather than waiting a
			// tick, so followers' timers reset and clients unblock.
			s.replicateToAllLocked()
			s.cond.Broadcast()
		}
		s.noteLocked()
		s.mu.Unlock()

	case wire.MsgRaftAppend:
		req, err := wire.DecodeRaftAppend(payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		resp := s.core.HandleAppend(*req)
		if req.Term == s.core.Term() {
			// Heard from the legitimate leader: hold the election timer.
			s.resetDeadlineLocked()
		}
		s.noteLocked()
		s.cond.Broadcast() // commit index may have advanced
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
		if s.core.HandleAppendResponse(resp) {
			s.cond.Broadcast()
		}
		if s.core.Role() == consensus.RoleLeader && s.core.Behind(resp.From) {
			// Catch-up streaming: keep batches flowing to a lagging
			// follower without waiting for the next tick.
			req := s.core.AppendRequestFor(resp.From)
			s.enqueueLocked(resp.From, wire.MsgRaftAppend, wire.EncodeRaftAppend(&req))
		}
		s.noteLocked()
		s.mu.Unlock()
	}
}

// tick drives the clocks: leader heartbeats, follower election timeouts,
// and a periodic broadcast so timed waiters (Submit deadlines) re-check.
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
		if s.core.Role() == consensus.RoleLeader {
			s.replicateToAllLocked()
			if m := s.cfg.Metrics; m != nil {
				m.ReplicationLag.Set(int64(s.core.LastIndex() - s.core.CommitIndex()))
			}
		} else if time.Now().After(s.deadline) {
			req := s.core.StartElection()
			if m := s.cfg.Metrics; m != nil {
				m.Elections.Inc()
			}
			s.resetDeadlineLocked()
			payload := wire.EncodeRaftVote(req)
			for _, addr := range s.core.Others() {
				s.enqueueLocked(addr, wire.MsgRaftVote, payload)
			}
			if s.core.Role() == consensus.RoleLeader {
				// Single-member cluster: the self-vote was the quorum.
				s.replicateToAllLocked()
			}
		}
		s.noteLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Submit implements consensus.Service with commit-wait semantics: a nil
// return means the entry is committed on a quorum and will appear in every
// replica's stream — the acknowledgement the zero-loss chaos assertion is
// built on. Followers refuse with consensus.ErrNotLeader (the node layer
// turns it into a client redirect).
func (s *RaftService) Submit(env consensus.Envelope) error {
	deadline := time.Now().Add(s.cfg.SubmitTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("transport: raft service closed")
	}
	idx, err := s.core.Append(env)
	if err != nil {
		return err
	}
	term := s.core.Term()
	s.replicateToAllLocked() // don't wait for the tick
	for {
		if s.core.CommitIndex() >= idx {
			if s.core.Entry(idx).Term == term {
				return nil
			}
			// Overwritten by a newer leader's log: not committed here.
			return consensus.ErrNotLeader{LeaderID: s.core.LeaderID()}
		}
		if s.core.Role() != consensus.RoleLeader || s.core.Term() != term {
			// Lost leadership mid-wait. The entry may yet commit, but we
			// can no longer promise it; the client's retry path resubmits
			// and the orderer's dedup horizon absorbs the duplicate.
			return consensus.ErrNotLeader{LeaderID: s.core.LeaderID()}
		}
		if s.closed {
			return fmt.Errorf("transport: raft service closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: raft submit: no quorum within %s", s.cfg.SubmitTimeout)
		}
		s.cond.Wait() // woken as HandleAppendResponse commits; the tick re-checks deadlines
	}
}

// Subscribe implements consensus.Service: the committed prefix from offset
// zero plus the live tail, exactly the in-process Kafka contract. Leader
// no-op entries are delivered too — identically on every replica, so the
// streams stay byte-for-byte equal.
func (s *RaftService) Subscribe() (<-chan consensus.Sequenced, func()) {
	ch := make(chan consensus.Sequenced, 128)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(done)
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	}
	s.wg.Add(1)
	// The stream's consumer is an orderer's run loop; the feeder is the
	// driver's, so it is labelled as such rather than inheriting the label.
	go pprof.Do(context.Background(), raftLabels, func(context.Context) {
		defer s.wg.Done()
		defer close(ch)
		next := uint64(1) // 1-based log index
		for {
			s.mu.Lock()
			for next > s.core.CommitIndex() && !s.closed {
				select {
				case <-done:
					s.mu.Unlock()
					return
				default:
				}
				s.cond.Wait()
			}
			if next > s.core.CommitIndex() && s.closed {
				s.mu.Unlock()
				return
			}
			entry := s.core.Entry(next)
			s.mu.Unlock()
			select {
			case ch <- consensus.Sequenced{Offset: next - 1, Env: entry.Env}:
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
		s.cond.Broadcast()
		s.mu.Unlock()
		close(s.done)
		_ = s.srv.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		s.wg.Wait()
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
