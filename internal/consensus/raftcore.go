package consensus

import (
	"fmt"
	"sort"
)

// This file is the *pure* Raft replicated-log state machine that backs the
// wire ordering cluster (internal/transport.RaftService drives it over TCP).
// It owns exactly the state the Raft paper calls persistent-plus-volatile —
// currentTerm, votedFor, the log, commitIndex, and the leader's
// nextIndex/matchIndex tables — and the transition rules: randomized-timeout
// elections are *decided* here (who to vote for, when a quorum is reached)
// but *timed* by the driver, which owns clocks, sockets, and retries. Keeping
// the rules free of I/O makes every safety property unit-testable without a
// network: no double vote in a term, log-matching truncation, commit only
// through a current-term entry, leader completeness via the up-to-date check.
//
// RaftCore models real cluster membership: each OS process owns one
// replica, messages arrive from sockets in any order, and liveness comes
// from the driver's randomized election timeouts. It is the only Raft in
// the repository.
//
// The log is a cold prefix and a hot tail. Compact moves committed entries
// off the heap into a ColdLog, which keeps them as records the driver can
// splice into an AppendEntries; the core keeps the cold entries' terms as
// one run per term, so every term comparison stays in memory, and reads a
// cold entry back only for a follower or a subscription that is behind the
// tail. The last entry and every uncommitted one stay hot, so a truncation
// never reaches the cold prefix.
//
// Scope note: the log itself is volatile (a restarted node rejoins empty and
// is caught up by the leader from index 1), while term and vote may be made
// durable through the Persist hook. That is safe only while a member that
// loses its log holds nothing that is not also on a quorum of the others: an
// acknowledger that restarts empty can vote for a candidate missing a
// committed entry, and the entry is lost (the schedule explorer's
// TestExplorerVolatileLogCounterSchedule pins one such schedule). Indexes
// are 1-based, per the paper; index 0 is the empty-log sentinel.

// RaftRole is a replica's current mode.
type RaftRole uint8

// The three Raft roles.
const (
	RoleFollower RaftRole = iota
	RoleCandidate
	RoleLeader
)

// String names the role for diagnostics.
func (r RaftRole) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// LogEntry pairs an envelope with the term it was proposed in.
type LogEntry struct {
	Term uint64
	Env  Envelope
}

// AppendRequest is the AppendEntries RPC: replication and, with no entries,
// the leader's heartbeat.
type AppendRequest struct {
	Term         uint64
	LeaderID     string
	PrevIndex    uint64
	PrevTerm     uint64
	LeaderCommit uint64
	Entries      []LogEntry
}

// AppendResponse answers an AppendRequest. On success MatchIndex is the
// highest index known replicated on the follower; on failure it is the
// follower's last log index — the leader's next-index backoff hint, which
// lets a freshly restarted (empty-log) follower be caught up in one round
// trip instead of one decrement per missing entry.
type AppendResponse struct {
	From       string
	Term       uint64
	Success    bool
	MatchIndex uint64
}

// VoteRequest is the RequestVote RPC.
type VoteRequest struct {
	Term        uint64
	CandidateID string
	LastIndex   uint64
	LastTerm    uint64
}

// VoteResponse answers a VoteRequest.
type VoteResponse struct {
	From    string
	Term    uint64
	Granted bool
}

// ErrNotLeader reports a submission to a replica that is not the cluster
// leader. LeaderID names the last leader this replica heard from ("" when
// unknown — e.g. mid-election); the node layer translates it into a client
// redirect hint.
type ErrNotLeader struct {
	LeaderID string
}

// Error implements error.
func (e ErrNotLeader) Error() string {
	if e.LeaderID == "" {
		return "consensus: not the leader (no leader known)"
	}
	return fmt.Sprintf("consensus: not the leader (try %s)", e.LeaderID)
}

// RaftCore is one replica's Raft state. It is not goroutine-safe: the driver
// serializes every call (internal/transport.RaftService holds one mutex
// across core access).
type RaftCore struct {
	id     string
	others []string // every member but this one

	term     uint64
	votedFor string
	role     RaftRole
	leader   string // last known leader's ID ("" when unknown)
	commit   uint64

	// log is the hot tail, entries base+1 through base+len(log); entries 1
	// through base are in Cold, and coldTerms holds their terms, one run
	// per term, in index order.
	log       []LogEntry
	base      uint64
	coldTerms []termRun

	// Leader volatile state (rebuilt at each election win). nextIndex is
	// the first index not known to be on a follower; sent, never below it,
	// is the first index not yet sent to it — replication runs ahead of the
	// acknowledgements, and a reject or Rewind moves sent back to nextIndex.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64
	sent       map[string]uint64
	votes      map[string]bool

	// Persist, when set, is called after every term or vote change — the
	// paper's "persistent state" write point. The driver stores both before
	// any message that could reveal them (a reply granting a vote must not
	// be forgotten by a crash, or the replica could vote twice in a term).
	Persist func(term uint64, votedFor string)

	// Cold, when set, takes the entries Compact moves off the heap; without
	// it Compact moves nothing.
	Cold ColdLog
}

// ColdLog holds the committed prefix of a log that a RaftCore compacted off
// its heap: entries 1 through n, appended in index order. A caller that
// serializes its core's calls serializes these too.
type ColdLog interface {
	// Append stores entries after every entry stored before, in one write;
	// on an error it stores none of them.
	Append(entries []LogEntry) error
	// Read returns entries from through to, inclusive.
	Read(from, to uint64) ([]LogEntry, error)
}

// termRun says that the cold entries from index first on, up to the next
// run's first, are of term term.
type termRun struct{ first, term uint64 }

// NewRaftCore creates a replica. members is the full cluster membership
// (including id); quorum is a majority of it.
func NewRaftCore(id string, members []string) (*RaftCore, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("consensus: raft cluster needs at least one member")
	}
	c := &RaftCore{id: id, role: RoleFollower}
	seen := false
	for _, m := range members {
		if m == id {
			seen = true
			continue
		}
		c.others = append(c.others, m)
	}
	if !seen {
		return nil, fmt.Errorf("consensus: member %q not in cluster %v", id, members)
	}
	return c, nil
}

// Restore installs durable term and vote state recovered from disk; call
// before the driver starts timers.
func (c *RaftCore) Restore(term uint64, votedFor string) {
	c.term = term
	c.votedFor = votedFor
}

// ID returns this replica's member ID.
func (c *RaftCore) ID() string { return c.id }

// Others returns every cluster member but this replica.
func (c *RaftCore) Others() []string { return c.others }

// Role returns the replica's current role.
func (c *RaftCore) Role() RaftRole { return c.role }

// Term returns the current term.
func (c *RaftCore) Term() uint64 { return c.term }

// LeaderID returns the last known leader ("" when unknown).
func (c *RaftCore) LeaderID() string {
	if c.role == RoleLeader {
		return c.id
	}
	return c.leader
}

// CommitIndex returns the highest committed log index.
func (c *RaftCore) CommitIndex() uint64 { return c.commit }

// LastIndex returns the highest log index (0 for an empty log).
func (c *RaftCore) LastIndex() uint64 { return c.base + uint64(len(c.log)) }

// Entry returns the log entry at 1-based index i, read back from the cold
// log when it is there (panics if out of range — callers only read
// committed, and therefore present, indexes).
func (c *RaftCore) Entry(i uint64) (LogEntry, error) {
	es, err := c.Entries(i, i)
	if err != nil {
		return LogEntry{}, err
	}
	return es[0], nil
}

// Entries returns the log entries from through to, inclusive: the hot ones
// as the log holds them, which the caller must not modify, the cold ones
// read back in one read.
func (c *RaftCore) Entries(from, to uint64) ([]LogEntry, error) {
	if from > c.base {
		return c.log[from-c.base-1 : to-c.base], nil
	}
	cold, err := c.Cold.Read(from, min(to, c.base))
	if err != nil || to <= c.base {
		return cold, err
	}
	return append(cold, c.log[:to-c.base]...), nil
}

// TermAt returns the term of the entry at index i (0 for index 0), cold or
// hot, without reading the cold log.
func (c *RaftCore) TermAt(i uint64) uint64 {
	switch {
	case i == 0:
		return 0
	case i > c.base:
		return c.log[i-c.base-1].Term
	}
	r := sort.Search(len(c.coldTerms), func(k int) bool { return c.coldTerms[k].first > i })
	return c.coldTerms[r-1].term
}

// Compact moves the entries at or below upTo to the cold log in one Append,
// and keeps the rest of the log in a fresh array, so the hot tail's old
// backing array is freed with the entries. It never moves an uncommitted
// entry or the last one, and moves nothing without a cold log. On an error
// every entry stays hot, and the next Compact tries again.
func (c *RaftCore) Compact(upTo uint64) error {
	upTo = min(upTo, c.commit, c.LastIndex()-1)
	if c.Cold == nil || upTo <= c.base {
		return nil
	}
	moved := c.log[:upTo-c.base]
	if err := c.Cold.Append(moved); err != nil {
		return err
	}
	for i, e := range moved {
		if n := len(c.coldTerms); n == 0 || c.coldTerms[n-1].term != e.Term {
			c.coldTerms = append(c.coldTerms, termRun{c.base + 1 + uint64(i), e.Term})
		}
	}
	c.log = append([]LogEntry(nil), c.log[upTo-c.base:]...)
	c.base = upTo
	return nil
}

// ColdIndex returns the index of the last entry in the cold log (0 when
// none is).
func (c *RaftCore) ColdIndex() uint64 { return c.base }

func (c *RaftCore) persist() {
	if c.Persist != nil {
		c.Persist(c.term, c.votedFor)
	}
}

// stepDown adopts a higher term as a follower.
func (c *RaftCore) stepDown(term uint64) {
	c.term = term
	c.votedFor = ""
	c.role = RoleFollower
	c.leader = ""
	c.votes = nil
	c.persist()
}

// quorum returns the majority threshold.
func (c *RaftCore) quorum() int { return (len(c.others)+1)/2 + 1 }

// StartElection moves to candidate in a fresh term, votes for itself, and
// returns the VoteRequest to broadcast. In a single-member cluster it wins
// immediately (the self-vote is the quorum).
func (c *RaftCore) StartElection() VoteRequest {
	c.term++
	c.role = RoleCandidate
	c.votedFor = c.id
	c.leader = ""
	c.votes = map[string]bool{c.id: true}
	c.persist()
	if len(c.votes) >= c.quorum() {
		c.becomeLeader()
	}
	return VoteRequest{
		Term:        c.term,
		CandidateID: c.id,
		LastIndex:   c.LastIndex(),
		LastTerm:    c.TermAt(c.LastIndex()),
	}
}

// HandleVote answers a RequestVote: grant iff the candidate's term is
// current, this replica has not voted for someone else this term, and the
// candidate's log is at least as up to date (the leader-completeness check —
// a candidate missing committed entries cannot gather a quorum, because
// every committed entry lives on a majority).
func (c *RaftCore) HandleVote(req VoteRequest) VoteResponse {
	if req.Term > c.term {
		c.stepDown(req.Term)
	}
	grant := false
	if req.Term == c.term &&
		(c.votedFor == "" || c.votedFor == req.CandidateID) &&
		c.candidateUpToDate(req) {
		c.votedFor = req.CandidateID
		c.persist()
		grant = true
	}
	return VoteResponse{From: c.id, Term: c.term, Granted: grant}
}

// candidateUpToDate implements the Raft §5.4.1 comparison: last terms, then
// last indexes.
func (c *RaftCore) candidateUpToDate(req VoteRequest) bool {
	myLast := c.LastIndex()
	myTerm := c.TermAt(myLast)
	if req.LastTerm != myTerm {
		return req.LastTerm > myTerm
	}
	return req.LastIndex >= myLast
}

// HandleVoteResponse tallies a vote; it reports whether this replica just
// won the election (the driver then broadcasts initial heartbeats).
func (c *RaftCore) HandleVoteResponse(resp VoteResponse) bool {
	if resp.Term > c.term {
		c.stepDown(resp.Term)
		return false
	}
	if c.role != RoleCandidate || resp.Term != c.term || !resp.Granted {
		return false
	}
	c.votes[resp.From] = true
	if len(c.votes) >= c.quorum() {
		c.becomeLeader()
		return true
	}
	return false
}

// becomeLeader installs the leader tables and appends a no-op entry in the
// new term. The no-op matters for liveness: a leader may only count
// replicas toward commit through an entry of its *own* term (§5.4.2), so
// without it, entries inherited from a dead leader would stay uncommitted
// until the next client submission. The ordering layer skips the empty
// envelope (it carries no transaction and no valid cut marker) identically
// on every replica, so block contents are unaffected.
func (c *RaftCore) becomeLeader() {
	c.role = RoleLeader
	c.leader = c.id
	c.nextIndex = make(map[string]uint64, len(c.others))
	c.matchIndex = make(map[string]uint64, len(c.others))
	c.sent = make(map[string]uint64, len(c.others))
	for _, p := range c.others {
		c.nextIndex[p] = c.LastIndex() + 1
		c.matchIndex[p] = 0
		c.sent[p] = c.LastIndex() + 1
	}
	c.log = append(c.log, LogEntry{Term: c.term, Env: Envelope{SubmittedBy: c.id}})
	c.advanceCommit()
}

// Append appends a client envelope to the leader's log and returns its
// index. Followers refuse with ErrNotLeader naming the leader to try.
func (c *RaftCore) Append(env Envelope) (uint64, error) {
	if c.role != RoleLeader {
		return 0, ErrNotLeader{LeaderID: c.LeaderID()}
	}
	c.log = append(c.log, LogEntry{Term: c.term, Env: env})
	c.advanceCommit() // single-member cluster commits immediately
	return c.LastIndex(), nil
}

// maxEntriesPerAppend bounds one AppendRequest's batch so a from-scratch
// catch-up streams in frames of a few hundred entries instead of one
// arbitrarily large frame; the driver keeps issuing requests while a
// follower is Behind.
const maxEntriesPerAppend = 256

// AppendRequestFor builds the leader's next AppendEntries for a follower —
// the entries from its sent cursor (none: a heartbeat), with the
// consistency-check predecessor and the leader's commit index — and
// advances the cursor past them, so each entry is sent once unless a
// reject or Rewind asks for it again. Entries behind the hot tail are read
// back from the cold log; a failed read advances nothing.
func (c *RaftCore) AppendRequestFor(peer string) (AppendRequest, error) {
	next := c.sent[peer]
	if next == 0 { // unknown peer: treat as fully behind
		next = 1
	}
	prev := next - 1
	req := AppendRequest{
		Term:         c.term,
		LeaderID:     c.id,
		PrevIndex:    prev,
		PrevTerm:     c.TermAt(prev),
		LeaderCommit: c.commit,
	}
	if last := c.LastIndex(); next <= last {
		end := next + maxEntriesPerAppend - 1
		if end > last {
			end = last
		}
		es, err := c.Entries(next, end)
		if err != nil {
			return AppendRequest{}, err
		}
		if next > c.base {
			es = append([]LogEntry(nil), es...)
		}
		req.Entries = es
		c.sent[peer] = end + 1
	}
	return req, nil
}

// Behind reports whether the log holds entries not yet sent to the follower
// — the driver's signal to send them.
func (c *RaftCore) Behind(peer string) bool {
	return c.role == RoleLeader && c.sent[peer] <= c.LastIndex()
}

// Rewind moves a follower's sent cursor back to the first index it is not
// known to hold, so the next request re-sends what may have been lost: the
// driver's answer to a silent interval or a request it could not send.
func (c *RaftCore) Rewind(peer string) {
	if c.role == RoleLeader {
		c.sent[peer] = c.nextIndex[peer]
	}
}

// HandleAppend applies an AppendEntries request: term check, §5.3 log
// consistency check, conflict truncation, append, commit advance. It
// reports the follower's new state to the leader.
func (c *RaftCore) HandleAppend(req AppendRequest) AppendResponse {
	if req.Term > c.term {
		c.stepDown(req.Term)
	}
	resp := AppendResponse{From: c.id, Term: c.term}
	if req.Term < c.term {
		resp.MatchIndex = c.LastIndex()
		return resp
	}
	// A current-term AppendEntries establishes its sender as leader; a
	// candidate that receives one concedes the election.
	c.role = RoleFollower
	c.leader = req.LeaderID
	if req.PrevIndex > c.LastIndex() || c.TermAt(req.PrevIndex) != req.PrevTerm {
		// Log-matching failure: tell the leader how far back to rewind. The
		// hint is this replica's last index when the log is short, or just
		// below the conflicting predecessor otherwise.
		hint := c.LastIndex()
		if req.PrevIndex <= hint {
			hint = req.PrevIndex - 1
		}
		resp.MatchIndex = hint
		return resp
	}
	// Append, truncating at the first conflicting entry. Entries already
	// present with matching terms are skipped (duplicate AppendEntries — a
	// retransmitted or reordered frame — must be idempotent).
	idx := req.PrevIndex
	for _, e := range req.Entries {
		idx++
		if idx <= c.LastIndex() {
			if c.TermAt(idx) == e.Term {
				continue
			}
			if idx <= c.commit {
				// Never reachable under Raft safety; a truncation below the
				// commit index would un-deliver sealed blocks upstream.
				panic(fmt.Sprintf("consensus: raft %s asked to truncate committed index %d (commit %d)", c.id, idx, c.commit))
			}
			c.log = c.log[:idx-c.base-1]
		}
		c.log = append(c.log, e)
	}
	resp.Success = true
	resp.MatchIndex = req.PrevIndex + uint64(len(req.Entries))
	if req.LeaderCommit > c.commit {
		limit := resp.MatchIndex
		if req.LeaderCommit < limit {
			limit = req.LeaderCommit
		}
		if limit > c.commit {
			c.commit = limit
		}
	}
	return resp
}

// HandleAppendResponse digests a follower's reply; it reports whether the
// commit index advanced (the driver's wake-up signal for submit waiters and
// subscribers).
func (c *RaftCore) HandleAppendResponse(resp AppendResponse) bool {
	if resp.Term > c.term {
		c.stepDown(resp.Term)
		return false
	}
	if c.role != RoleLeader || resp.Term != c.term {
		return false
	}
	if resp.Success {
		if resp.MatchIndex > c.matchIndex[resp.From] {
			c.matchIndex[resp.From] = resp.MatchIndex
		}
		c.nextIndex[resp.From] = c.matchIndex[resp.From] + 1
		if c.sent[resp.From] < c.nextIndex[resp.From] {
			c.sent[resp.From] = c.nextIndex[resp.From]
		}
		return c.advanceCommit()
	}
	// Rewind toward the follower's hint (never below 1, never above the
	// current nextIndex - 1).
	next := c.nextIndex[resp.From]
	if next > 1 {
		next--
	}
	if resp.MatchIndex+1 < next {
		next = resp.MatchIndex + 1
	}
	if next < 1 {
		next = 1
	}
	c.nextIndex[resp.From] = next
	c.sent[resp.From] = next
	return false
}

// advanceCommit commits the highest index replicated on a quorum whose entry
// is of the current term (§5.4.2: a leader never counts replicas for an
// older term's entry — those commit transitively).
func (c *RaftCore) advanceCommit() bool {
	advanced := false
	for n := c.LastIndex(); n > c.commit; n-- {
		if c.TermAt(n) != c.term {
			break
		}
		count := 1 // self
		for _, p := range c.others {
			if c.matchIndex[p] >= n {
				count++
			}
		}
		if count >= c.quorum() {
			c.commit = n
			advanced = true
			break
		}
	}
	return advanced
}
