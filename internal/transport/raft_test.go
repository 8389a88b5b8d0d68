package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/wire"
)

// startRaftCluster boots n members with fast timers on in-memory addresses
// named up front (a cluster's full membership must be known before any
// member starts). mutate, when non-nil, adjusts each member's config before
// start (fault seams, state dirs).
func startRaftCluster(t *testing.T, n int, mutate func(i int, cfg *RaftConfig)) []*RaftService {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem:%s/%d", t.Name(), i)
	}
	svcs := make([]*RaftService, n)
	for i, addr := range addrs {
		cfg := RaftConfig{
			ID:              addr,
			Cluster:         addrs,
			ElectionTimeout: 100 * time.Millisecond,
			Seed:            int64(1000 * (i + 1)),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := StartRaft(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { within(t, 5*time.Second, "RaftService.Close", s.Close) })
		svcs[i] = s
	}
	return svcs
}

// submitWithin submits env to s and returns the submit's error, failing the
// test now if the submit has not returned within d.
func submitWithin(t *testing.T, s *RaftService, env consensus.Envelope, d time.Duration) error {
	t.Helper()
	var err error
	if !within(t, d, "a submit", func() { err = s.Submit(env) }) {
		t.FailNow()
	}
	return err
}

// waitLeader polls until exactly one live member leads, returning its index.
func waitLeader(t *testing.T, svcs []*RaftService, timeout time.Duration) int {
	t.Helper()
	leader := -1
	deadline := time.Now().Add(timeout)
	if !within(t, timeout+5*time.Second, "polling for a leader", func() {
		for leader < 0 && time.Now().Before(deadline) {
			for i, s := range svcs {
				if s != nil && s.IsLeader() {
					leader = i
				}
			}
			if leader < 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}) {
		t.FailNow()
	}
	if leader < 0 {
		t.Fatal("no leader elected")
	}
	return leader
}

// waitCommit polls until every live member's commit index reaches idx.
func waitCommit(t *testing.T, svcs []*RaftService, idx uint64, timeout time.Duration) {
	t.Helper()
	behind := true
	commits := make([]uint64, len(svcs))
	deadline := time.Now().Add(timeout)
	if !within(t, timeout+5*time.Second, "polling the commit indexes", func() {
		for behind && time.Now().Before(deadline) {
			behind = false
			for i, s := range svcs {
				if s != nil {
					commits[i] = s.CommitIndex()
					behind = behind || commits[i] < idx
				}
			}
			if behind {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}) {
		t.FailNow()
	}
	if !behind {
		return
	}
	for i, s := range svcs {
		if s != nil {
			t.Logf("member %d: commit %d (want %d)", i, commits[i], idx)
		}
	}
	t.Fatalf("replication did not converge to index %d", idx)
}

// collectStream reads the first n committed envelopes from one member.
func collectStream(t *testing.T, s *RaftService, n int, timeout time.Duration) []consensus.Envelope {
	t.Helper()
	ch, cancel := s.Subscribe()
	defer cancel()
	return readStream(t, ch, n, timeout)
}

// readStream reads the first n envelopes of a subscription from offset zero.
func readStream(t *testing.T, ch <-chan consensus.Sequenced, n int, timeout time.Duration) []consensus.Envelope {
	t.Helper()
	out := make([]consensus.Envelope, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case seq, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d/%d entries", len(out), n)
			}
			if seq.Offset != uint64(len(out)) {
				t.Fatalf("offset %d at position %d", seq.Offset, len(out))
			}
			out = append(out, seq.Env)
		case <-deadline:
			t.Fatalf("stream stalled at %d/%d entries", len(out), n)
		}
	}
	return out
}

// envKey reduces an envelope to a comparable identity for stream equality.
func envKey(e consensus.Envelope) string {
	return fmt.Sprintf("%s|%s|%d|%v", e.SubmittedBy, e.Commitment, e.CutBlock, e.Disclosure)
}

// TestWireRaftElectsAndReplicates: a cluster of three, or a group of one,
// elects one leader, replicates submissions, and every member's
// subscription yields the identical committed stream — the agreement
// property block sealing relies on.
func TestWireRaftElectsAndReplicates(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) { testElectsAndReplicates(t, n) })
	}
}

func testElectsAndReplicates(t *testing.T, members int) {
	svcs := startRaftCluster(t, members, nil)
	lead := waitLeader(t, svcs, 10*time.Second)
	// A subscriber attached before any submission tails the log live; the
	// ones collectStream opens afterwards replay it. Both must read the
	// same stream.
	live, cancelLive := svcs[lead].Subscribe()
	defer cancelLive()

	const n = 20
	for i := 0; i < n; i++ {
		if err := svcs[lead].Submit(consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("c%d", i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	idx := svcs[lead].CommitIndex()
	waitCommit(t, svcs, idx, 10*time.Second)

	want := collectStream(t, svcs[lead], int(idx), 10*time.Second)
	for j := range want {
		select {
		case seq := <-live:
			if seq.Offset != uint64(j) || envKey(seq.Env) != envKey(want[j]) {
				t.Fatalf("live subscriber diverges from the replaying one at %d: offset %d %q vs %q",
					j, seq.Offset, envKey(seq.Env), envKey(want[j]))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("live subscriber stalled at %d/%d", j, len(want))
		}
	}
	for i, s := range svcs {
		got := collectStream(t, s, int(idx), 10*time.Second)
		for j := range want {
			if envKey(got[j]) != envKey(want[j]) {
				t.Fatalf("member %d stream diverges at %d: %q vs %q",
					i, j, envKey(got[j]), envKey(want[j]))
			}
		}
	}
}

// TestWireRaftLoneMemberLeadsAtStart: a group of one — a standalone
// orderer's, on a name nobody dials — leads when StartRaft returns, and
// serves the consensus contract without encoding a transaction that carries
// its bytes, as an orderer's submit does: its stream opens with its no-op,
// concurrent submitters reach every subscriber in one order, and a
// cancelled subscriber holds up no submit.
func TestWireRaftLoneMemberLeadsAtStart(t *testing.T) {
	s, err := StartRaft(RaftConfig{ID: "orderer0", Cluster: []string{"orderer0"}, Listen: "mem:"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { within(t, 5*time.Second, "RaftService.Close", s.Close) })
	first := txEnv(0)
	if err := s.Submit(first); err != nil {
		t.Fatalf("first submit after StartRaft: %v", err)
	}
	head := collectStream(t, s, 2, 5*time.Second)
	if noop := head[0]; noop.Tx != nil || noop.CutBlock != 0 || noop.Commitment != "" || noop.SubmittedBy != "orderer0" {
		t.Fatalf("offset 0 is %q, want the leader's no-op", envKey(noop))
	}
	if head[1].Tx == nil || head[1].Tx.ID != "tx0" {
		t.Fatalf("offset 1 is %q, want the first submit", envKey(head[1]))
	}
	if head[1].Tx != first.Tx || &head[1].TxBytes[0] != &first.TxBytes[0] {
		t.Fatal("the first subscription was not handed the submitted transaction and its bytes")
	}

	// Four submitters, two live subscribers: one order.
	a, cancelA := s.Subscribe()
	b, cancelB := s.Subscribe()
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Submit(txEnv(100*g + i)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	n := int(s.CommitIndex())
	if n != 102 {
		t.Fatalf("commit index %d after 101 submits, want 102 with the no-op", n)
	}
	ga, gb := readStream(t, a, n, 5*time.Second), readStream(t, b, n, 5*time.Second)
	cancelA()
	cancelB()
	for i := range ga {
		if (ga[i].Tx == nil) != (gb[i].Tx == nil) || ga[i].Tx != nil && ga[i].Tx.ID != gb[i].Tx.ID {
			t.Fatalf("subscribers diverge at offset %d", i)
		}
	}

	// A cancelled subscriber must not hold up later submits.
	c, cancelC := s.Subscribe()
	readStream(t, c, 1, 5*time.Second)
	cancelC()
	flood := make(chan error, 1)
	go func() {
		for i := 0; i < 1000; i++ {
			if err := s.Submit(txEnv(1000 + i)); err != nil {
				flood <- err
				return
			}
		}
		flood <- nil
	}()
	select {
	case err := <-flood:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submits blocked on a cancelled subscriber")
	}
	if got := s.CommitIndex(); got != uint64(n)+1000 {
		t.Fatalf("commit index %d, want %d", got, n+1000)
	}
	env := txEnv(0)
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Submit(env) }); allocs > 2 {
		t.Fatalf("a submit to a group of one made %.1f allocations; want at most 2, with no envelope encoded", allocs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.encodes != 0 {
		t.Fatalf("a member with no followers encoded %d transactions handed in with their bytes", s.encodes)
	}
}

// TestWireRaftNotLeaderRedirect: a follower refuses submissions with
// ErrNotLeader carrying the leader's identity — the redirect the node layer
// hands to clients.
func TestWireRaftNotLeaderRedirect(t *testing.T) {
	svcs := startRaftCluster(t, 3, nil)
	lead := waitLeader(t, svcs, 10*time.Second)
	// Let leadership propagate to the followers via a heartbeat.
	deadline := time.Now().Add(5 * time.Second)
	for i, s := range svcs {
		if i == lead {
			continue
		}
		var err error
		if !within(t, 10*time.Second, "a follower's redirect", func() {
			for s.Leader() != svcs[lead].cfg.ID && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			err = s.Submit(consensus.Envelope{SubmittedBy: "client", Commitment: "x"})
		}) {
			t.FailNow()
		}
		var nl consensus.ErrNotLeader
		if !asErrNotLeader(err, &nl) {
			t.Fatalf("follower %d: got %v, want ErrNotLeader", i, err)
		}
		if nl.LeaderID != svcs[lead].cfg.ID {
			t.Fatalf("follower %d redirects to %q, leader is %q", i, nl.LeaderID, svcs[lead].cfg.ID)
		}
	}
}

func asErrNotLeader(err error, nl *consensus.ErrNotLeader) bool {
	e, ok := err.(consensus.ErrNotLeader)
	if ok {
		*nl = e
	}
	return ok
}

// TestWireRaftLeaderFailover: killing the leader mid-stream elects a new one
// among the survivors; committed entries survive and new submissions land on
// the same log. Metrics record the election and failover.
func TestWireRaftLeaderFailover(t *testing.T) {
	var ms [3]metrics.ConsensusMetrics
	svcs := startRaftCluster(t, 3, func(i int, cfg *RaftConfig) {
		cfg.Metrics = &ms[i]
		cfg.SubmitTimeout = time.Second // bounds the no-quorum submit below
	})
	lead := waitLeader(t, svcs, 10*time.Second)

	submit := func(what string) {
		t.Helper()
		if err := submitWithin(t, svcs[lead], consensus.Envelope{SubmittedBy: "client", Commitment: what}, 10*time.Second); err != nil {
			t.Fatalf("submit %s: %v", what, err)
		}
	}
	for i := 0; i < 10; i++ {
		submit(fmt.Sprintf("pre%d", i))
	}
	before := svcs[lead].CommitIndex()
	waitCommit(t, svcs, before, 10*time.Second)

	old := lead
	within(t, 5*time.Second, "RaftService.Close", svcs[old].Close)
	svcs[old] = nil
	lead = waitLeader(t, svcs, 15*time.Second)

	for i := 0; i < 10; i++ {
		submit(fmt.Sprintf("post%d", i))
	}
	after := svcs[lead].CommitIndex()
	if after < before+10 {
		t.Fatalf("commit index went backwards: %d before kill, %d after", before, after)
	}
	waitCommit(t, svcs, after, 10*time.Second)

	// The survivors agree on the whole stream, old entries included.
	var streams [][]consensus.Envelope
	for _, s := range svcs {
		if s != nil {
			streams = append(streams, collectStream(t, s, int(after), 10*time.Second))
		}
	}
	for j := range streams[0] {
		if envKey(streams[0][j]) != envKey(streams[1][j]) {
			t.Fatalf("survivors diverge at %d", j)
		}
	}
	pre := 0
	for _, e := range streams[0] {
		if len(e.Commitment) > 3 && e.Commitment[:3] == "pre" {
			pre++
		}
	}
	if pre != 10 {
		t.Fatalf("lost committed entries: %d/10 pre-failover commitments survive", pre)
	}
	if ms[lead].Failovers.Value() == 0 {
		t.Fatal("new leader's failover counter never moved")
	}
	if ms[lead].Elections.Value() == 0 {
		t.Fatal("new leader won without an election being counted")
	}

	// Quorum loss: with a second member gone the last one is a minority of
	// three. It must refuse to acknowledge — nothing new commits — and once
	// closed it must refuse outright.
	for i, s := range svcs {
		if s != nil && i != lead {
			within(t, 5*time.Second, "RaftService.Close", s.Close)
		}
	}
	if err := submitWithin(t, svcs[lead], consensus.Envelope{SubmittedBy: "client", Commitment: "no-quorum"}, 10*time.Second); err == nil {
		t.Fatal("a one-of-three minority acknowledged a submission")
	}
	if got := svcs[lead].CommitIndex(); got != after {
		t.Fatalf("commit index moved %d → %d without a quorum", after, got)
	}
	within(t, 5*time.Second, "RaftService.Close", svcs[lead].Close)
	if err := submitWithin(t, svcs[lead], consensus.Envelope{SubmittedBy: "client", Commitment: "late"}, 5*time.Second); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestWireRaftReplicationUnderFrameLoss: every outbound connection drops a
// quarter of its frames, duplicates some, and delays others — replication
// must still converge, because every protocol message is idempotent and the
// tick loop regenerates lost state.
func TestWireRaftReplicationUnderFrameLoss(t *testing.T) {
	svcs := startRaftCluster(t, 3, func(i int, cfg *RaftConfig) {
		seed := int64(7000 + i)
		cfg.Dial = func(addr string) (FrameConn, error) {
			inner, err := Dial(addr)
			if err != nil {
				return nil, err
			}
			fc := NewFaultConn(inner, seed)
			fc.DropProb = 0.25
			fc.DupProb = 0.15
			fc.MaxDelay = 2 * time.Millisecond
			return fc, nil
		}
	})
	lead := waitLeader(t, svcs, 30*time.Second)

	const n = 30
	for i := 0; i < n; i++ {
		if err := submitWithin(t, svcs[lead], consensus.Envelope{SubmittedBy: "client", Commitment: fmt.Sprintf("lossy%d", i)}, 30*time.Second); err != nil {
			// The leader may lose its lease under heavy loss; find the new
			// one and keep going — the client retry path in miniature.
			lead = waitLeader(t, svcs, 30*time.Second)
			i--
			continue
		}
	}
	idx := svcs[lead].CommitIndex()
	waitCommit(t, svcs, idx, 30*time.Second)

	want := collectStream(t, svcs[lead], int(idx), 10*time.Second)
	for i, s := range svcs {
		got := collectStream(t, s, int(idx), 10*time.Second)
		for j := range want {
			if envKey(got[j]) != envKey(want[j]) {
				t.Fatalf("member %d diverges at %d under frame loss", i, j)
			}
		}
	}
}

// TestWireRaftRestartCatchesUp: a member restarted with its persisted term
// and vote (but an empty log) rejoins, catches up from the leader in batched
// appends, and resumes serving the identical stream.
func TestWireRaftRestartCatchesUp(t *testing.T) {
	dirs := make([]string, 3)
	svcs := startRaftCluster(t, 3, func(i int, cfg *RaftConfig) {
		dirs[i] = t.TempDir()
		cfg.Dir = dirs[i]
	})
	lead := waitLeader(t, svcs, 10*time.Second)
	follower := (lead + 1) % 3

	cfgCopy := svcs[follower].cfg
	termBefore := svcs[follower].Term()
	within(t, 5*time.Second, "RaftService.Close", svcs[follower].Close)
	svcs[follower] = nil

	for i := 0; i < 15; i++ {
		if err := submitWithin(t, svcs[lead], consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("while-down%d", i),
		}, 10*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	idx := svcs[lead].CommitIndex()

	reborn, err := StartRaft(cfgCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { within(t, 5*time.Second, "RaftService.Close", reborn.Close) })
	if reborn.Term() < termBefore {
		t.Fatalf("restart forgot its term: %d < %d", reborn.Term(), termBefore)
	}
	svcs[follower] = reborn
	waitCommit(t, svcs, idx, 15*time.Second)

	want := collectStream(t, svcs[lead], int(idx), 10*time.Second)
	got := collectStream(t, reborn, int(idx), 10*time.Second)
	for j := range want {
		if envKey(got[j]) != envKey(want[j]) {
			t.Fatalf("restarted member diverges at %d", j)
		}
	}
}

// TestRaftStateSurvivesACrashBeforeTheRename: a raft-state.tmp left by a
// crash between the temp file's write and its rename is ignored on load —
// beside an older state file and on its own — and a malformed state file is
// refused rather than read as a fresh member.
func TestRaftStateSurvivesACrashBeforeTheRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "raft-state")
	if err := saveRaftState(path, 7, "m2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("raft-state.tmp outlived the save: %v", err)
	}
	// The crash: the next save's temp file is written, torn, never renamed.
	if err := os.WriteFile(path+".tmp", []byte("8\nm"), 0o644); err != nil {
		t.Fatal(err)
	}
	if term, vote, err := loadRaftState(path); err != nil || term != 7 || vote != "m2" {
		t.Fatalf("load beside a leftover temp file: (%d, %q, %v), want (7, \"m2\", nil)", term, vote, err)
	}
	if err := saveRaftState(path, 8, "m3"); err != nil {
		t.Fatal(err)
	}
	if term, vote, err := loadRaftState(path); err != nil || term != 8 || vote != "m3" {
		t.Fatalf("load after a save over the leftover: (%d, %q, %v), want (8, \"m3\", nil)", term, vote, err)
	}
	fresh := filepath.Join(t.TempDir(), "raft-state")
	if err := os.WriteFile(fresh+".tmp", []byte("9\nm1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if term, vote, err := loadRaftState(fresh); err != nil || term != 0 || vote != "" {
		t.Fatalf("load with only a temp file: (%d, %q, %v), want a fresh member", term, vote, err)
	}
	for _, bad := range []string{"", "7", "7\n", "7\nm2", "x\nm2\n", " 7\nm2\n", "7\nm2\nextra\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if term, vote, err := loadRaftState(path); err == nil {
			t.Errorf("state file %q loaded as (%d, %q), want it refused", bad, term, vote)
		}
	}
}

// raftFrameFilter wraps a member's outbound connections: drop, when set,
// decides per frame whether it is lost; frames records the AppendEntries
// carrying entries that got through, and beat, when set, is signalled
// (without blocking) as each empty one — a heartbeat — goes out.
type raftFrameFilter struct {
	mu     sync.Mutex
	drop   func(t wire.MsgType, n int) bool // n: frames of type t seen on this conn before
	frames []appendFrame
	beat   chan struct{}
}

// appendFrame is one AppendEntries with entries: its destination and its
// entries' envelopes.
type appendFrame struct {
	to   string
	envs []consensus.Envelope
}

type filteredConn struct {
	FrameConn
	f    *raftFrameFilter
	to   string
	seen map[wire.MsgType]int
}

func (f *raftFrameFilter) dial(addr string) (FrameConn, error) {
	inner, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &filteredConn{FrameConn: inner, f: f, to: addr, seen: map[wire.MsgType]int{}}, nil
}

func (c *filteredConn) Send(t wire.MsgType, payload []byte) error {
	c.f.mu.Lock()
	n := c.seen[t]
	c.seen[t]++
	lost := c.f.drop != nil && c.f.drop(t, n)
	if !lost && t == wire.MsgRaftAppend {
		if req, err := wire.DecodeRaftAppend(payload); err == nil && len(req.Entries) > 0 {
			fr := appendFrame{to: c.to}
			for _, e := range req.Entries {
				fr.envs = append(fr.envs, e.Env)
			}
			c.f.frames = append(c.f.frames, fr)
		} else if err == nil && c.f.beat != nil {
			select {
			case c.f.beat <- struct{}{}:
			default:
			}
		}
	}
	c.f.mu.Unlock()
	if lost {
		return nil
	}
	return c.FrameConn.Send(t, payload)
}

// appends returns the AppendEntries with entries sent so far.
func (f *raftFrameFilter) appends() []appendFrame {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]appendFrame(nil), f.frames...)
}

// startRaftMember boots one member of a cluster named by addrs.
func startRaftMember(t *testing.T, addrs []string, i int, mutate func(cfg *RaftConfig)) *RaftService {
	t.Helper()
	cfg := RaftConfig{ID: addrs[i], Cluster: addrs, ElectionTimeout: 500 * time.Millisecond,
		Heartbeat: 10 * time.Millisecond, Seed: int64(1000 * (i + 1))}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := StartRaft(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { within(t, 5*time.Second, "RaftService.Close", s.Close) })
	return s
}

func memAddrs(t *testing.T, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem:%s/%d", t.Name(), i)
	}
	return addrs
}

// TestWireRaftFreshClusterElectsOnceAQuorumListens: a fresh member's first
// election deadline is its rank × heartbeat, and its RequestVote is re-sent
// each tick, so a fresh cluster whose third member starts two heartbeats
// late still has a leader well before the election timeout T — the
// randomized [T, 2T) timer alone would not campaign before T.
func TestWireRaftFreshClusterElectsOnceAQuorumListens(t *testing.T) {
	const T = 500 * time.Millisecond
	addrs := memAddrs(t, 3)
	start := time.Now()
	svcs := make([]*RaftService, 3)
	svcs[1] = startRaftMember(t, addrs, 1, nil)
	svcs[2] = startRaftMember(t, addrs, 2, nil)
	time.Sleep(20 * time.Millisecond)
	svcs[0] = startRaftMember(t, addrs, 0, nil)
	waitLeader(t, svcs, 10*time.Second)
	if took := time.Since(start); took >= T/2 {
		t.Fatalf("a fresh cluster took %v to elect; want well under T = %v", took, T)
	}
}

// TestWireRaftRestartedMemberDoesNotDisrupt: a member restarted on its state
// directory has seen a term, so it keeps the randomized [T, 2T) timer and
// hears the sitting leader before it runs out: no election, no new term.
func TestWireRaftRestartedMemberDoesNotDisrupt(t *testing.T) {
	addrs := memAddrs(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	var ms [3]metrics.ConsensusMetrics
	svcs := make([]*RaftService, 3)
	for i := range svcs {
		i := i
		svcs[i] = startRaftMember(t, addrs, i, func(cfg *RaftConfig) { cfg.Dir, cfg.Metrics = dirs[i], &ms[i] })
	}
	lead := waitLeader(t, svcs, 10*time.Second)
	term := svcs[lead].Term()
	f := (lead + 1) % 3
	within(t, 5*time.Second, "RaftService.Close", svcs[f].Close)
	ms[f] = metrics.ConsensusMetrics{}
	svcs[f] = startRaftMember(t, addrs, f, func(cfg *RaftConfig) { cfg.Dir, cfg.Metrics = dirs[f], &ms[f] })
	if svcs[f].Term() == 0 {
		t.Fatal("the restarted member forgot its term")
	}
	time.Sleep(500 * time.Millisecond) // T
	if n := ms[f].Elections.Value(); n != 0 {
		t.Fatalf("the restarted member started %d elections while a leader was alive", n)
	}
	var leads bool
	var now uint64
	var got string
	if !within(t, 5*time.Second, "reading the members' state", func() {
		leads, now, got = svcs[lead].IsLeader(), svcs[lead].Term(), svcs[f].Leader()
	}) {
		t.FailNow()
	}
	if !leads || now != term {
		t.Fatalf("the sitting leader was disrupted: leads %v, term %d → %d", leads, term, now)
	}
	if got != addrs[lead] {
		t.Fatalf("the restarted member follows %q, want %q", got, addrs[lead])
	}
}

// TestWireRaftLostVoteIsResent: the first RequestVote on each of the
// candidate's connections is lost; the candidate re-sends it on the next
// tick and wins that same candidacy, long before its election timer or a
// peer's first deadline would start another.
func TestWireRaftLostVoteIsResent(t *testing.T) {
	addrs := memAddrs(t, 3)
	lossy := &raftFrameFilter{drop: func(t wire.MsgType, n int) bool { return t == wire.MsgRaftVote && n == 0 }}
	var m metrics.ConsensusMetrics
	svcs := make([]*RaftService, 3)
	// The peers start first, and their first deadlines (rank × 200ms) leave
	// the race to member 0, which campaigns on its first 20ms tick.
	for i := 1; i < 3; i++ {
		svcs[i] = startRaftMember(t, addrs, i, func(cfg *RaftConfig) {
			cfg.Heartbeat, cfg.ElectionTimeout = 200*time.Millisecond, 2*time.Second
		})
	}
	start := time.Now()
	svcs[0] = startRaftMember(t, addrs, 0, func(cfg *RaftConfig) {
		cfg.Heartbeat, cfg.ElectionTimeout, cfg.Dial, cfg.Metrics = 20*time.Millisecond, 2*time.Second, lossy.dial, &m
	})
	if lead := waitLeader(t, svcs, 10*time.Second); lead != 0 {
		t.Fatalf("member %d leads; want member 0, whose re-sent vote should win", lead)
	}
	if took := time.Since(start); took >= 180*time.Millisecond {
		t.Fatalf("elected after %v; a re-sent vote lands a tick (20ms) after the lost one", took)
	}
	if n := m.Elections.Value(); n != 1 {
		t.Fatalf("member 0 ran %d candidacies; the re-send should win the first", n)
	}
}

// startFilteredCluster boots three members ticking every tick, each with a
// frame filter on its outbound connections, and returns once every member
// holds the leader's whole log committed — the followers idle.
func startFilteredCluster(t *testing.T, tick time.Duration) ([]*RaftService, []*raftFrameFilter, int) {
	t.Helper()
	addrs := memAddrs(t, 3)
	filters := make([]*raftFrameFilter, 3)
	svcs := make([]*RaftService, 3)
	for i := range svcs {
		filters[i] = &raftFrameFilter{beat: make(chan struct{}, 1)}
		svcs[i] = startRaftMember(t, addrs, i, func(cfg *RaftConfig) {
			cfg.Heartbeat, cfg.ElectionTimeout, cfg.Dial = tick, 10*tick, filters[i].dial
		})
	}
	lead := waitLeader(t, svcs, 10*time.Second)
	waitCommit(t, svcs, lastIndex(svcs[lead]), 10*time.Second)
	return svcs, filters, lead
}

// lastIndex returns the member's last log index.
func lastIndex(s *RaftService) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.LastIndex()
}

// submitConcurrently submits each envelope from a goroutine of its own,
// starting one every gap, and fails the test if any submission does or if
// they have not all returned within 30 s.
func submitConcurrently(t *testing.T, s *RaftService, envs []consensus.Envelope, gap time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(envs))
	for i := range envs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Submit(envs[i])
		}(i)
		time.Sleep(gap)
	}
	if !within(t, 30*time.Second, "the submits", wg.Wait) {
		t.FailNow()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// txEnv is a transaction envelope — one that waits for the tick — carrying
// its bytes, as an orderer's submit does.
func txEnv(i int) consensus.Envelope {
	tx := &protocol.Transaction{ID: protocol.TxID(fmt.Sprintf("tx%d", i))}
	return consensus.Envelope{SubmittedBy: "client", Tx: tx, TxBytes: wire.EncodeTransaction(tx)}
}

// TestWireRaftCoalescesConcurrentSubmits: 64 concurrent Submits of control
// envelopes on the leader — each wakes the senders — reach each follower in
// far fewer AppendEntries than one per entry, since the sender sends
// everything past the follower's cursor at once, and no transaction is
// encoded for them.
func TestWireRaftCoalescesConcurrentSubmits(t *testing.T) {
	// A 100ms tick: no silent-interval rewind re-sends anything here.
	svcs, filters, lead := startFilteredCluster(t, 100*time.Millisecond)
	leader := svcs[lead]
	leader.mu.Lock()
	encodes := leader.encodes
	leader.mu.Unlock()
	frames := len(filters[lead].appends())

	const n = 64
	envs := make([]consensus.Envelope, n)
	for i := range envs {
		envs[i] = consensus.Envelope{SubmittedBy: "client", Commitment: fmt.Sprintf("c%d", i)}
	}
	submitConcurrently(t, leader, envs, 0)
	waitCommit(t, svcs, leader.CommitIndex(), 10*time.Second)
	leader.mu.Lock()
	encoded := leader.encodes - encodes
	leader.mu.Unlock()
	sent := len(filters[lead].appends()) - frames
	t.Logf("%d submits: %d AppendEntries with entries to 2 followers, %d transactions encoded", n, sent, encoded)
	if encoded != 0 {
		t.Fatalf("%d transactions encoded for %d control entries; want none", encoded, n)
	}
	if sent > n {
		t.Fatalf("%d AppendEntries carried %d entries to 2 followers; want well under %d", sent, n, 2*n)
	}
}

// TestWireRaftTransactionsRideTheTick: a transaction envelope wakes no
// sender, so 20 submitted 2ms apart — within one interval — reach each
// follower in at most two AppendEntries, one tick's or two ticks' if one
// falls among them, where waking the senders would send about one each;
// and all of them commit within two intervals.
func TestWireRaftTransactionsRideTheTick(t *testing.T) {
	const tick, n, gap = 100 * time.Millisecond, 20, 2 * time.Millisecond
	svcs, filters, lead := startFilteredCluster(t, tick)
	leader := svcs[lead]
	frames := len(filters[lead].appends())

	envs := make([]consensus.Envelope, n)
	for i := range envs {
		envs[i] = txEnv(i)
	}
	start := time.Now()
	submitConcurrently(t, leader, envs, gap)
	if took := time.Since(start); took >= 2*tick {
		t.Fatalf("%d transactions committed after %v; want within two intervals (%v)", n, took, 2*tick)
	}
	waitCommit(t, svcs, leader.CommitIndex(), 10*time.Second)
	per := map[string]int{}
	for _, fr := range filters[lead].appends()[frames:] {
		per[fr.to]++
	}
	t.Logf("%d transactions: AppendEntries with entries per follower %v", n, per)
	for i, s := range svcs {
		if i != lead && (per[s.cfg.ID] == 0 || per[s.cfg.ID] > 2) {
			t.Fatalf("follower %d was sent %d AppendEntries with entries for %d transactions; want 1 or 2", i, per[s.cfg.ID], n)
		}
	}
}

// TestWireRaftMarkerFlushesAtOnce: transactions parked since the last tick
// stay uncommitted until a cut marker wakes the senders; the marker then
// carries them to each follower in one AppendEntries and commits in one
// round trip, well before the next tick, every follower learns of the
// commit as soon, and every member's committed stream reads the
// transactions in submission order, then the marker. A round runs only
// while no tick falls between the first append and the marker: one that
// does (a loaded machine can stretch the appends past an interval) sends
// the transactions itself, so the round is void and runs again, up to five
// times.
func TestWireRaftMarkerFlushesAtOnce(t *testing.T) {
	const tick, k, rounds = 100 * time.Millisecond, 5, 5
	svcs, filters, lead := startFilteredCluster(t, tick)
	leader, f := svcs[lead], filters[lead]
	for round := 1; !markerFlushRound(t, svcs, leader, f, tick, k); round++ {
		if round == rounds {
			t.Fatalf("all %d rounds void: a tick fell between the first append and the marker in each", rounds)
		}
		t.Logf("round %d void: a tick fell between the first append and the marker", round)
	}
}

// markerFlushRound is one round of TestWireRaftMarkerFlushesAtOnce. It
// reports false, having asserted nothing, when the leader sent an
// AppendEntries — a heartbeat or the parked transactions — between the
// first append and the marker.
func markerFlushRound(t *testing.T, svcs []*RaftService, leader *RaftService, f *raftFrameFilter, tick time.Duration, k int) bool {
	t.Helper()
	// Start just after a tick's heartbeat, an interval before the next one.
	select {
	case <-f.beat:
	default:
	}
	select {
	case <-f.beat:
	case <-time.After(10 * time.Second):
		t.Fatal("the leader sent no heartbeat")
	}
	base := lastIndex(leader)
	frames := len(f.appends())
	select {
	case <-f.beat:
	default:
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = leader.Submit(txEnv(i + 1))
		}(i)
		for lastIndex(leader) < base+uint64(i+1) { // appended in order tx1..k
			time.Sleep(100 * time.Microsecond)
		}
	}
	ticked := len(f.appends()) != frames
	select {
	case <-f.beat:
		ticked = true
	default:
	}
	if ticked {
		// The tick carries the parked transactions; let them commit.
		wg.Wait()
		waitCommit(t, svcs, base+uint64(k), 10*time.Second)
		return false
	}
	if c := leader.CommitIndex(); c != base {
		t.Fatalf("commit index %d → %d before the marker; a transaction should wait for the tick", base, c)
	}
	start := time.Now()
	if err := leader.Submit(consensus.Envelope{SubmittedBy: "orderer", CutBlock: 1}); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit tx%d: %v", i+1, err)
		}
	}
	if took >= tick/2 {
		t.Fatalf("the marker committed after %v; want under half an interval (%v)", took, tick/2)
	}
	// The followers learn the marker committed at once too: they seal on it.
	for i, s := range svcs {
		for s.CommitIndex() < base+uint64(k)+1 {
			if time.Since(start) >= tick/2 {
				t.Fatalf("member %d learned the marker committed only after %v; want under half an interval", i, time.Since(start))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	sent := f.appends()[frames:]
	if len(sent) != 2 { // the commit's announcement carries no entries
		t.Fatalf("%d AppendEntries with entries after the marker; want one per follower", len(sent))
	}
	for _, fr := range sent {
		if len(fr.envs) != k+1 || fr.envs[k].CutBlock != 1 {
			t.Fatalf("the marker's AppendEntries to %s carried %d entries; want the %d transactions, then the marker", fr.to, len(fr.envs), k)
		}
	}
	waitCommit(t, svcs, base+uint64(k)+1, 10*time.Second)
	for i, s := range svcs {
		got := collectStream(t, s, int(base)+k+1, 10*time.Second)[base:]
		for j, env := range got[:k] {
			if want := protocol.TxID(fmt.Sprintf("tx%d", j+1)); env.Tx == nil || env.Tx.ID != want {
				t.Fatalf("member %d: entry %d of the flush is %q; want %s", i, j, envKey(env), want)
			}
		}
		if got[k].CutBlock != 1 {
			t.Fatalf("member %d: the flush ends with %q; want the marker", i, envKey(got[k]))
		}
	}
	return true
}

// BenchmarkRaftSubmit measures commit-wait Submit on the leader of a
// three-member cluster on in-memory connections at the default heartbeat,
// for control envelopes (sent at once) and transaction envelopes (sent on
// the tick), with one submitter and with 64. It reports committed
// submissions per second and the AppendEntries carrying entries sent per
// committed submission (appends/op), counted through the dial seam, which
// decodes each AppendEntries the leader sends.
func BenchmarkRaftSubmit(b *testing.B) {
	for _, kind := range []string{"control", "tx"} {
		for _, c := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/c%d", kind, c), func(b *testing.B) {
				addrs := make([]string, 3)
				for i := range addrs {
					addrs[i] = fmt.Sprintf("mem:%s/%d", b.Name(), i)
				}
				filter := &raftFrameFilter{}
				svcs := make([]*RaftService, 3)
				for i := range svcs {
					s, err := StartRaft(RaftConfig{ID: addrs[i], Cluster: addrs, Seed: int64(i + 1), Dial: filter.dial})
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					svcs[i] = s
				}
				var leader *RaftService
				for leader == nil {
					for _, s := range svcs {
						if s.IsLeader() {
							leader = s
						}
					}
					time.Sleep(time.Millisecond)
				}
				env := consensus.Envelope{SubmittedBy: "bench"}
				if kind == "tx" {
					env.Tx = &protocol.Transaction{ID: "bench"}
					env.TxBytes = wire.EncodeTransaction(env.Tx)
				}
				var next atomic.Int64
				var failed atomic.Bool
				frames := len(filter.appends())
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for g := 0; g < c; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if err := leader.Submit(env); err != nil {
								failed.Store(true)
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if failed.Load() {
					b.Fatal("a submit failed")
				}
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "tx/s")
				b.ReportMetric(float64(len(filter.appends())-frames)/float64(b.N), "appends/op")
			})
		}
	}
}
