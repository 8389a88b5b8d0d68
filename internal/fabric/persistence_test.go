package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

func TestRestartFromPersistedChain(t *testing.T) {
	dir := t.TempDir()
	boot := func() *Network {
		n, err := NewNetwork(Options{
			System:       sched.SystemSharp,
			BlockSize:    3,
			BlockTimeout: 50 * time.Millisecond,
			DataDir:      dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Session 1: write some state, remember the tip.
	n1 := boot()
	c1, err := n1.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := c1.MustSubmit("kv", "put", fmt.Sprintf("durable%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	height1 := n1.Height()
	tip1 := n1.Peer(0).Chain().TipHash()
	fp1 := n1.Peer(0).State().StateFingerprint()
	n1.Close()
	if height1 == 0 {
		t.Fatal("no blocks in session 1")
	}

	// Session 2: resume from the same directory.
	n2 := boot()
	defer n2.Close()
	if got := n2.Height(); got != height1 {
		t.Fatalf("resumed height %d want %d", got, height1)
	}
	if !bytes.Equal(n2.Peer(0).Chain().TipHash(), tip1) {
		t.Fatal("resumed chain tip differs")
	}
	if n2.Peer(0).State().StateFingerprint() != fp1 {
		t.Fatal("resumed state differs")
	}
	// Every replica (including in-memory peers) replayed to the same point.
	for i := 1; i < 4; i++ {
		if n2.Peer(i).State().StateFingerprint() != fp1 {
			t.Fatalf("peer %d did not replay the stored chain", i)
		}
		if err := n2.Peer(i).Chain().Verify(); err != nil {
			t.Fatalf("peer %d chain: %v", i, err)
		}
	}

	// The chain continues: new transactions extend the stored one.
	c2, err := n2.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.MustSubmit("kv", "put", "after-restart", "yes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Block <= height1 {
		t.Fatalf("new block %d does not extend stored height %d", res.Block, height1)
	}
	// Old state is still readable.
	val, err := c2.Query("kv", "get", "durable3")
	if err != nil || string(val) != "v3" {
		t.Fatalf("durable read = %q, %v", val, err)
	}
	if err := n2.Peer(0).Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartPreservesVersionsForMVCC(t *testing.T) {
	// After a restart, version tuples must still match what the stored
	// chain assigned — otherwise MVCC systems would misvalidate.
	dir := t.TempDir()
	n1, err := NewNetwork(Options{System: sched.SystemFabric, BlockSize: 2,
		BlockTimeout: 50 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := n1.NewClient("c")
	if _, err := c1.MustSubmit("kv", "rmw", "counter", "5"); err != nil {
		t.Fatal(err)
	}
	n1.Close()

	n2, err := NewNetwork(Options{System: sched.SystemFabric, BlockSize: 2,
		BlockTimeout: 50 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	c2, _ := n2.NewClient("c2")
	// An rmw reads the restored version and must validate cleanly.
	if _, err := c2.MustSubmit("kv", "rmw", "counter", "2"); err != nil {
		t.Fatal(err)
	}
	val, err := c2.Query("kv", "get", "counter")
	if err != nil || string(val) != "7" {
		t.Fatalf("counter = %q, %v", val, err)
	}
}

// TestRestartWithRescuedBlocks persists a chain that contains Rescued
// verdicts and resumes it. Rescued transactions carry no write sets in the
// block, so the replay path must re-derive them with the same executor
// (commit.ReplayRescue on the peers, the orderer's shadow walk for
// OnBlockCommitted) — and must refuse to replay such a chain with Rescue
// disabled. Under fabric# the rescued verdicts sit in deferred tails, which
// replay designates from the stored codes.
func TestRestartWithRescuedBlocks(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemSharp} {
		t.Run(string(system), func(t *testing.T) { restartWithRescuedBlocks(t, system) })
	}
}

func restartWithRescuedBlocks(t *testing.T, system sched.System) {
	dir := t.TempDir()
	boot := func(rescue bool) (*Network, error) {
		return NewNetwork(Options{
			System:       system,
			BlockSize:    4,
			BlockTimeout: 50 * time.Millisecond,
			DataDir:      dir,
			Rescue:       rescue,
		})
	}

	// Session 1: contended transfers so rescued verdicts land on disk.
	n1, err := boot(true)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := n1.NewClient("bank")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c1.MustSubmit("smallbank", "create_account", fmt.Sprintf("h%d", i), "1000", "1000"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c1.Submit("smallbank", "send_payment", fmt.Sprintf("h%d", (w+i)%3), fmt.Sprintf("h%d", (w+i+1)%3), "1")
			}
		}(w)
	}
	wg.Wait()
	if !n1.WaitIdle(10 * time.Second) {
		t.Fatalf("network did not go idle (err=%v)", n1.Err())
	}
	rescued := 0
	n1.Peer(0).Chain().ForEach(func(b *ledger.Block) bool {
		for _, c := range b.Validation {
			if c == protocol.Rescued {
				rescued++
			}
		}
		return true
	})
	height1 := n1.Height()
	tip1 := n1.Peer(0).Chain().TipHash()
	fp1 := n1.Peer(0).State().StateFingerprint()
	n1.Close()
	if rescued == 0 {
		t.Fatal("no Rescued verdicts persisted — fixture not contended enough")
	}

	// Rescue disabled: the stored chain is unreplayable and boot must say so.
	if n, err := boot(false); err == nil {
		n.Close()
		t.Fatal("boot with Rescue disabled replayed a chain holding rescued verdicts")
	}

	// Session 2: resume with Rescue on; replay re-derives the rescued writes.
	n2, err := boot(true)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Height(); got != height1 {
		t.Fatalf("resumed height %d want %d", got, height1)
	}
	if !bytes.Equal(n2.Peer(0).Chain().TipHash(), tip1) {
		t.Fatal("resumed chain tip differs")
	}
	for i := 0; i < 4; i++ {
		if got := n2.Peer(i).State().StateFingerprint(); got != fp1 {
			t.Fatalf("peer %d resumed state %s, want %s", i, got, fp1)
		}
	}
	// The chain keeps extending, and committed money survived the replay.
	c2, err := n2.NewClient("auditor")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 3; i++ {
		raw, err := c2.Query("smallbank", "query", fmt.Sprintf("h%d", i))
		if err != nil {
			t.Fatal(err)
		}
		var bal struct{ Checking, Savings int }
		if err := json.Unmarshal(raw, &bal); err != nil {
			t.Fatalf("balance %q: %v", raw, err)
		}
		total += bal.Checking + bal.Savings
	}
	if total != 3*2000 {
		t.Fatalf("money not conserved across restart: %d, want %d", total, 3*2000)
	}
}

func TestRangeQueryManifest(t *testing.T) {
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	for _, id := range []string{"c3", "a1", "b2"} {
		if _, err := client.MustSubmit("supplychain", "register", id, "acme", "loc"); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := client.Query("supplychain", "manifest")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := json.Unmarshal(raw, &ids); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[a1 b2 c3]" {
		t.Errorf("manifest = %v", ids)
	}
}

func TestRangeQueryAsTransactionSerializes(t *testing.T) {
	// A manifest submitted as a transaction records per-key read versions;
	// it must commit and the run must stay serializable end to end.
	n := newNet(t, Options{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	for i := 0; i < 3; i++ {
		if _, err := client.MustSubmit("supplychain", "register", fmt.Sprintf("it%d", i), "o", "l"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.MustSubmit("supplychain", "manifest"); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAcrossCompactionEpoch restarts a persisted network whose
// orderers compact their intern tables every 2 sealed blocks. FastForward
// restores the sealed block counter, and the compaction trigger is a pure
// function of it, so the restarted replicas rejoin the same epoch schedule:
// the chain keeps extending across further compaction boundaries, state
// survives, and a follower orderer resuming from the same stored chain stays
// in exact agreement.
func TestRestartAcrossCompactionEpoch(t *testing.T) {
	dir := t.TempDir()
	boot := func() *Network {
		n, err := NewNetwork(Options{
			System:       sched.SystemSharp,
			Ordering:     consensus.NewKafka(),
			BlockSize:    2,
			MaxSpan:      4,
			CompactEvery: 2,
			BlockTimeout: 50 * time.Millisecond,
			DataDir:      dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Session 1: churn through rotating keys across >= 2 compaction epochs.
	n1 := boot()
	c1, err := n1.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c1.MustSubmit("kv", "put", fmt.Sprintf("g%d:k%d", i/4, i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	height1 := n1.Height()
	tip1 := n1.Peer(0).Chain().TipHash()
	n1.Close()
	if height1 < 4 {
		t.Fatalf("session 1 sealed %d blocks, need >= 4 (two compaction epochs)", height1)
	}

	// Session 2: resume, then cross more compaction boundaries.
	n2 := boot()
	defer n2.Close()
	if got := n2.Height(); got != height1 {
		t.Fatalf("resumed height %d want %d", got, height1)
	}
	if !bytes.Equal(n2.Peer(0).Chain().TipHash(), tip1) {
		t.Fatal("resumed chain tip differs")
	}
	c2, err := n2.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}
	var last TxResult
	for i := 0; i < 10; i++ {
		if last, err = c2.MustSubmit("kv", "put", fmt.Sprintf("h%d:k%d", i/4, i), "v2"); err != nil {
			t.Fatal(err)
		}
	}
	if last.Block < height1+4 {
		t.Fatalf("session 2 reached block %d, need >= %d to cross another epoch", last.Block, height1+4)
	}
	// Pre-restart state survived both the restart and the post-restart
	// compactions (compaction touches orderer key state, never the ledger).
	val, err := c2.Query("kv", "get", "g0:k0")
	if err != nil || string(val) != "v1" {
		t.Fatalf("pre-restart read = %q, %v", val, err)
	}
	if err := n2.Peer(0).Chain().Verify(); err != nil {
		t.Fatal(err)
	}
	if !n2.WaitIdle(5 * time.Second) {
		t.Fatalf("resumed network did not go idle (err=%v)", n2.Err())
	}
	// What session 2 resumed from: the first height1 blocks of its chain.
	stored, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	for num := uint64(1); num <= height1; num++ {
		b, _ := n2.OrdererChain().Get(num)
		blk := *b
		if err := stored.Append(&blk); err != nil {
			t.Fatal(err)
		}
	}
	assertOrderersAgree(t, n2, stored)
}

func TestFastForwardRejectsDirtyScheduler(t *testing.T) {
	for _, sys := range sched.Systems() {
		s, err := sched.New(sys, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FastForward(10); err != nil {
			t.Fatalf("%s: clean fast-forward failed: %v", sys, err)
		}
		res, err := s.OnBlockFormation()
		if err != nil {
			t.Fatal(err)
		}
		if res.Block != 11 {
			t.Errorf("%s: next block = %d want 11", sys, res.Block)
		}
	}
	// Dirty scheduler refuses.
	s, _ := sched.New(sched.SystemSharp, sched.Options{})
	if _, err := s.OnArrival(&protocol.Transaction{ID: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.FastForward(10); err == nil {
		t.Error("fast-forward of a dirty scheduler accepted")
	}
}

// TestFastForwardRejectsFedScheduler is the regression companion to the
// arrivals check above: a scheduler that has absorbed commit feedback has
// history too, even with zero arrivals. Focc-l used to fast-forward in that
// state, silently keeping stale committed-version tracking across the jump.
func TestFastForwardRejectsFedScheduler(t *testing.T) {
	writer := &protocol.Transaction{
		ID:    "w",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: "hot", Value: []byte("v")}}},
	}
	fed, _ := sched.New(sched.SystemFoccL, sched.Options{})
	fed.OnBlockCommitted(1, []*protocol.Transaction{writer}, []protocol.ValidationCode{protocol.Valid})
	if err := fed.FastForward(10); err == nil {
		t.Error("fast-forward accepted after commit feedback recorded committed versions")
	}
	// Feedback that recorded nothing (no valid writes) leaves no history:
	// fast-forward must still be allowed.
	clean, _ := sched.New(sched.SystemFoccL, sched.Options{})
	clean.OnBlockCommitted(1, []*protocol.Transaction{writer}, []protocol.ValidationCode{protocol.MVCCConflict})
	if err := clean.FastForward(10); err != nil {
		t.Errorf("fast-forward rejected with no committed state: %v", err)
	}
}
