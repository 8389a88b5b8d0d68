package transport

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/wire"
)

// submitTxs submits transaction envelopes tx<from> … tx<from+n-1> to s from
// 64 goroutines, and fails the test if any submission does or if they have
// not all returned within 30 s.
func submitTxs(t *testing.T, s *RaftService, from, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	next := make(chan int, n)
	for i := from; i < from+n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := s.Submit(txEnv(i)); err != nil {
					errs <- err
				}
			}
		}()
	}
	if !within(t, 30*time.Second, "the submits", wg.Wait) {
		t.FailNow()
	}
	close(errs)
	for err := range errs {
		t.Fatalf("submit: %v", err)
	}
}

// entryBytes is an envelope in the AppendEntries entry encoding: what two
// byte-identical streams have in common.
func entryBytes(env consensus.Envelope) []byte {
	return wire.AppendRaftEntry(nil, &consensus.LogEntry{Env: env})
}

// coldIndex returns the last index in the member's cold log.
func coldIndex(s *RaftService) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.ColdIndex()
}

// TestWireRaftHeldStaysWithinTheHotTail: a member whose stream nobody
// subscribes to keeps the decoded transactions of its hot tail and no more
// — compaction drops what it held for the entries it moves to the cold log.
// A group of three with no subscription commits more than a hot tail of
// transactions; every member holds at most the tail, a chunk, and what is
// not yet committed.
func TestWireRaftHeldStaysWithinTheHotTail(t *testing.T) {
	svcs := startRaftCluster(t, 3, func(_ int, cfg *RaftConfig) { cfg.Heartbeat = 5 * time.Millisecond })
	lead := waitLeader(t, svcs, 10*time.Second)
	submitTxs(t, svcs[lead], 0, hotEntries+3*compactChunk)
	waitCommit(t, svcs, svcs[lead].CommitIndex(), 10*time.Second)
	for i, s := range svcs {
		s.mu.Lock()
		held, cold, uncommitted := len(s.held), s.core.ColdIndex(), s.core.LastIndex()-s.core.CommitIndex()
		s.mu.Unlock()
		if cold == 0 {
			t.Fatalf("member %d moved nothing to its cold log", i)
		}
		if limit := hotEntries + compactChunk + int(uncommitted); held > limit {
			t.Fatalf("member %d holds %d decoded transactions, more than its hot tail allows (%d)", i, held, limit)
		}
	}
}

// TestWireRaftRestartedFollowerCatchesUpFromTheColdLog: a follower that
// restarts empty after the leader's hot tail has left index 1 is sent the
// leader's cold prefix, read back from its file, and its stream is the
// leader's byte for byte.
func TestWireRaftRestartedFollowerCatchesUpFromTheColdLog(t *testing.T) {
	svcs := startRaftCluster(t, 3, func(_ int, cfg *RaftConfig) { cfg.Heartbeat = 5 * time.Millisecond })
	lead := waitLeader(t, svcs, 10*time.Second)
	follower := (lead + 1) % 3
	cfg := svcs[follower].cfg
	within(t, 5*time.Second, "RaftService.Close", svcs[follower].Close)
	svcs[follower] = nil

	submitTxs(t, svcs[lead], 0, 2*hotEntries)
	idx := svcs[lead].CommitIndex()
	if cold := coldIndex(svcs[lead]); cold < hotEntries/2 {
		t.Fatalf("leader's cold log ends at %d of %d committed entries", cold, idx)
	}
	reborn, err := StartRaft(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { within(t, 5*time.Second, "RaftService.Close", reborn.Close) })
	svcs[follower] = reborn
	waitCommit(t, svcs, idx, 15*time.Second)

	want := collectStream(t, svcs[lead], int(idx), 10*time.Second)
	got := collectStream(t, reborn, int(idx), 10*time.Second)
	for j := range want {
		if !bytes.Equal(entryBytes(got[j]), entryBytes(want[j])) {
			t.Fatalf("restarted follower's stream differs from the leader's at offset %d", j)
		}
	}
	if coldIndex(reborn) == 0 {
		t.Fatal("the restarted follower compacted nothing")
	}
}

// TestWireRaftLateSubscribeReplaysTheColdLog: a subscription from index 1
// that starts after the hot tail has left it replays every entry from the
// cold log, byte for byte what was submitted, each transaction decoded.
func TestWireRaftLateSubscribeReplaysTheColdLog(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	const n = 2 * hotEntries
	for i := 0; i < n; i++ {
		if err := s.Submit(txEnv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cold := coldIndex(s); cold < hotEntries/2 {
		t.Fatalf("cold log ends at %d of %d entries", cold, n+1)
	}
	// The leader's no-op, then the transactions.
	got := collectStream(t, s, n+1, 10*time.Second)
	for i, env := range got[1:] {
		want := txEnv(i)
		if !bytes.Equal(entryBytes(env), entryBytes(want)) {
			t.Fatalf("entry %d replayed differently", i+2)
		}
		if env.Tx == nil || env.Tx.ID != want.Tx.ID {
			t.Fatalf("entry %d replayed without its transaction decoded", i+2)
		}
	}
}

// TestWireRaftColdReadFailureFailsTheService: a cold entry the member
// cannot read back — its file closed, or its record not decoding — ends its
// stream with the service's error, never with a gap, and refuses further
// submits.
func TestWireRaftColdReadFailureFailsTheService(t *testing.T) {
	for name, spoil := range map[string]func(*coldLog){
		"closed file":       func(l *coldLog) { _ = l.file.Close() },
		"undecodable entry": func(l *coldLog) { l.offs[0]++ },
	} {
		t.Run(name, func(t *testing.T) {
			s := startRaftCluster(t, 1, nil)[0]
			for i := 0; i < 2*hotEntries; i++ {
				if err := s.Submit(txEnv(i)); err != nil {
					t.Fatal(err)
				}
			}
			s.mu.Lock()
			spoil(s.cold)
			s.mu.Unlock()
			ch, cancel := s.Subscribe()
			defer cancel()
			for range ch {
				t.Fatal("a stream delivered an entry it could not read")
			}
			if s.Err() == nil {
				t.Fatal("the stream ended without the service failing")
			}
			if err := s.Submit(txEnv(2 * hotEntries)); err == nil {
				t.Fatal("a failed service accepted a submit")
			}
		})
	}
}

// TestWireRaftFailedSpillKeepsEntriesHot: a cold log that cannot be written
// leaves the entries hot and the stream whole, and the next compaction that
// can write moves them.
func TestWireRaftFailedSpillKeepsEntriesHot(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	s.mu.Lock()
	s.cold.file.Dir = filepath.Join(t.TempDir(), "missing")
	s.mu.Unlock()
	const n = 2 * hotEntries
	for i := 0; i < n; i++ {
		if err := s.Submit(txEnv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cold := coldIndex(s); cold != 0 {
		t.Fatalf("an unwritable cold log holds %d entries", cold)
	}
	s.mu.Lock()
	s.cold.file.Dir = t.TempDir()
	s.mu.Unlock()
	for i := n; i < n+compactChunk; i++ {
		if err := s.Submit(txEnv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cold := coldIndex(s); cold < n-hotEntries {
		t.Fatalf("cold log ends at %d of %d entries once it could be written", cold, n+compactChunk+1)
	}
	got := collectStream(t, s, n+compactChunk+1, 10*time.Second)
	for i, env := range got[1:] {
		if !bytes.Equal(entryBytes(env), entryBytes(txEnv(i))) {
			t.Fatalf("entry %d replayed differently", i+2)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWireRaftUndecodableEntryFailsTheService: an entry whose transaction
// bytes do not decode — bytes a caller submitted unchecked, or a cold record
// read back wrong — ends the stream there with the service's error instead
// of crashing the process.
func TestWireRaftUndecodableEntryFailsTheService(t *testing.T) {
	s := startRaftCluster(t, 1, nil)[0]
	if err := s.Submit(consensus.Envelope{TxBytes: []byte{0xff}}); err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Subscribe()
	defer cancel()
	within(t, 5*time.Second, "the stream", func() {
		for seq := range ch {
			if seq.Offset > 0 {
				t.Errorf("delivered entry %d, whose transaction does not decode", seq.Offset+1)
			}
		}
	})
	var err error
	if !within(t, 5*time.Second, "RaftService.Err", func() { err = s.Err() }) {
		t.FailNow()
	}
	if err == nil {
		t.Fatal("the stream ended without the service failing")
	}
}
