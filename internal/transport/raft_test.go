package transport

import (
	"fmt"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/transport/transporttest"
)

// startRaftCluster boots n members with fast timers on ports picked up front
// (a cluster's full membership must be known before any member starts).
// mutate, when non-nil, adjusts each member's config before start (fault
// seams, state dirs).
func startRaftCluster(t *testing.T, n int, mutate func(i int, cfg *RaftConfig)) []*RaftService {
	t.Helper()
	var svcs []*RaftService
	transporttest.BootOnFreePorts(t, n, func(addrs []string) error {
		svcs = nil
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
				for _, started := range svcs {
					started.Close()
				}
				return err
			}
			svcs = append(svcs, s)
		}
		return nil
	})
	for _, s := range svcs {
		t.Cleanup(s.Close)
	}
	return svcs
}

// waitLeader polls until exactly one live member leads, returning its index.
func waitLeader(t *testing.T, svcs []*RaftService, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		leader := -1
		for i, s := range svcs {
			if s != nil && s.IsLeader() {
				leader = i
			}
		}
		if leader >= 0 {
			return leader
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return -1
}

// waitCommit polls until every live member's commit index reaches idx.
func waitCommit(t *testing.T, svcs []*RaftService, idx uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		behind := false
		for _, s := range svcs {
			if s != nil && s.CommitIndex() < idx {
				behind = true
			}
		}
		if !behind {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, s := range svcs {
		if s != nil {
			t.Logf("member %d: commit %d (want %d)", i, s.CommitIndex(), idx)
		}
	}
	t.Fatalf("replication did not converge to index %d", idx)
}

// collectStream reads the first n committed envelopes from one member.
func collectStream(t *testing.T, s *RaftService, n int, timeout time.Duration) []consensus.Envelope {
	t.Helper()
	ch, cancel := s.Subscribe()
	defer cancel()
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

// TestWireRaftElectsAndReplicates: three OS-socket members elect one leader,
// replicate submissions, and every member's subscription yields the
// identical committed stream — the agreement property block sealing relies
// on.
func TestWireRaftElectsAndReplicates(t *testing.T) {
	svcs := startRaftCluster(t, 3, nil)
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
		for s.Leader() != svcs[lead].cfg.ID && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		err := s.Submit(consensus.Envelope{SubmittedBy: "client", Commitment: "x"})
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

	for i := 0; i < 10; i++ {
		if err := svcs[lead].Submit(consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("pre%d", i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	before := svcs[lead].CommitIndex()
	waitCommit(t, svcs, before, 10*time.Second)

	svcs[lead].Close()
	old := lead
	svcs[old] = nil
	lead = waitLeader(t, svcs, 15*time.Second)

	for i := 0; i < 10; i++ {
		if err := svcs[lead].Submit(consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("post%d", i),
		}); err != nil {
			t.Fatalf("post-failover submit %d: %v", i, err)
		}
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
			s.Close()
		}
	}
	if err := svcs[lead].Submit(consensus.Envelope{SubmittedBy: "client", Commitment: "no-quorum"}); err == nil {
		t.Fatal("a one-of-three minority acknowledged a submission")
	}
	if got := svcs[lead].CommitIndex(); got != after {
		t.Fatalf("commit index moved %d → %d without a quorum", after, got)
	}
	svcs[lead].Close()
	if err := svcs[lead].Submit(consensus.Envelope{SubmittedBy: "client", Commitment: "late"}); err == nil {
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
		if err := svcs[lead].Submit(consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("lossy%d", i),
		}); err != nil {
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
	svcs[follower].Close()
	svcs[follower] = nil

	for i := 0; i < 15; i++ {
		if err := svcs[lead].Submit(consensus.Envelope{
			SubmittedBy: "client", Commitment: fmt.Sprintf("while-down%d", i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	idx := svcs[lead].CommitIndex()

	reborn, err := StartRaft(cfgCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Close)
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
