package node

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
)

// TestRestartPreservesVersionsForMVCC reopens a durable peer between two
// read-modify-writes of one key. The version tuple the store restores must
// be the one the chain assigned — otherwise MVCC validation would misjudge
// the second rmw, and the committer, which byte-asserts its verdicts against
// the orderer's, would fail.
func TestRestartPreservesVersionsForMVCC(t *testing.T) {
	var first uint64
	sealed := sealChain(t, sched.SystemFabric, 2, func(c *NetworkClient) {
		res, err := c.MustSubmit("kv", "rmw", "counter", "5")
		if err != nil {
			t.Fatal(err)
		}
		first = res.Block
		if _, err := c.MustSubmit("kv", "rmw", "counter", "2"); err != nil {
			t.Fatal(err)
		}
	})
	if first == 0 || first >= uint64(len(sealed)) {
		t.Fatalf("first rmw sealed in block %d of %d; the restart needs blocks on both sides", first, len(sealed))
	}

	dir := t.TempDir()
	p1, err := newBarePeer(t, sched.SystemFabric, dir)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, p1, sealed[:first])
	stored, ok := p1.State().Get("counter")
	if !ok || string(stored.Value) != "5" {
		t.Fatalf("counter before the restart = %+v, %v", stored, ok)
	}
	p1.Close()

	p2, err := newBarePeer(t, sched.SystemFabric, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p2.State().Get("counter"); !ok || got.Version != stored.Version || !bytes.Equal(got.Value, stored.Value) {
		t.Fatalf("reopened counter = %+v, %v; the store was closed holding %+v", got, ok, stored)
	}
	// The second rmw read the restored version and must validate cleanly.
	commitAll(t, p2, sealed[first:])
	if got, _ := p2.State().Get("counter"); string(got.Value) != "7" {
		t.Fatalf("counter = %q, want 7", got.Value)
	}
	if got := p2.Tip().CommittedTxs(); got != 2 {
		t.Fatalf("%d transactions committed, want both rmws", got)
	}
	checkPosition(t, "reopened peer", p2, referencePositions(t, sched.SystemFabric, sealed)[len(sealed)])
}

// TestRestartWithRescuedBlocks reopens a durable peer between blocks that
// carry Rescued verdicts. Rescued transactions carry no write sets in the
// block: the peer re-executes them against its state, so the blocks after
// the restart re-derive their rescued writes from values the store restored,
// and the committer byte-asserts verdicts and rescue digests against the
// orderer's. The reopened peer must stand where an in-memory reference does,
// before and after catching up, and committed money must be conserved.
func TestRestartWithRescuedBlocks(t *testing.T) {
	for _, system := range []sched.System{sched.SystemFabric, sched.SystemSharp} {
		t.Run(string(system), func(t *testing.T) { restartWithRescuedBlocks(t, system) })
	}
}

func restartWithRescuedBlocks(t *testing.T, system sched.System) {
	sealed := sealContended(t, system, 16)
	rescued := rescuedBlocks(sealed)
	if len(rescued) < 2 {
		t.Fatalf("%d of %d blocks hold rescued verdicts; need two to restart between", len(rescued), len(sealed))
	}
	// Restart just after the first rescued block: rescued verdicts lie on
	// both sides of it.
	mid := rescued[0]
	at := referencePositions(t, system, sealed)

	dir := t.TempDir()
	p1, err := newBarePeer(t, system, dir)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, p1, sealed[:mid])
	p1.Close()

	p2, err := newBarePeer(t, system, dir)
	if err != nil {
		t.Fatal(err)
	}
	if tip, _ := p2.Tip().Height(); tip != mid || p2.State().Height() != mid {
		t.Fatalf("reopened at chain tip %d, state height %d; the store was closed at %d", tip, p2.State().Height(), mid)
	}
	checkPosition(t, "reopened peer", p2, at[mid])
	commitAll(t, p2, sealed[mid:])
	checkPosition(t, "reopened peer, caught up", p2, at[len(sealed)])

	// The peer keeps no blocks; its store does.
	p2.Close()
	var rescuedAfter, oldReads int
	storedChain(t, dir).ForEach(func(b *ledger.Block) bool {
		if b.Header.Number <= mid {
			return true
		}
		for i, code := range b.Validation {
			switch code {
			case protocol.Rescued:
				rescuedAfter++
			case protocol.Valid:
				for _, r := range b.Transactions[i].RWSet.Reads {
					if r.Version.Block > 0 && r.Version.Block <= mid {
						oldReads++
					}
				}
			}
		}
		return true
	})
	if rescuedAfter == 0 || oldReads == 0 {
		t.Fatalf("after the restart at block %d: %d rescued verdicts, %d reads of pre-restart versions; need both",
			mid, rescuedAfter, oldReads)
	}

	total := 0
	for i := 0; i < 3; i++ {
		for _, key := range []string{chaincode.CheckingKey(fmt.Sprintf("h%d", i)), chaincode.SavingsKey(fmt.Sprintf("h%d", i))} {
			vv, ok := p2.State().Get(key)
			if !ok {
				t.Fatalf("%s missing after the restart", key)
			}
			bal, err := strconv.Atoi(string(vv.Value))
			if err != nil {
				t.Fatalf("%s = %q: %v", key, vv.Value, err)
			}
			total += bal
		}
	}
	if total != 3*2000 {
		t.Fatalf("money not conserved across restart: %d, want %d", total, 3*2000)
	}
}
