package orderer

import (
	"fmt"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
)

// discard is the Events of a test that only inspects the Core afterwards.
type discard struct{}

func (discard) Admitted(protocol.TxID, protocol.ValidationCode) {}
func (discard) Aborted(protocol.TxID, protocol.ValidationCode)  {}
func (discard) Sealed(*ledger.Block)                            {}
func (discard) CutStage(uint64, trace.Stage)                    {}

// TestDedupSeenEviction checks the Core's duplicate-suppression memory is
// bounded by DedupHorizon: TxIDs resolved more than the horizon ago are
// forgotten, recent ones retained.
func TestDedupSeenEviction(t *testing.T) {
	msp, policy := identity.DevMSP("peer0")
	peer := identity.Deterministic("peer0", identity.RolePeer)
	c, err := NewCore(CoreConfig{
		Options: Options{System: sched.SystemSharp, BlockSize: 2, DedupHorizon: 2},
		MSP:     msp,
		Policy:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := func(i int) protocol.TxID { return protocol.TxID(fmt.Sprintf("tx%d", i)) }
	const txs = 12
	for i := 0; i < txs; i++ {
		tx := &protocol.Transaction{ID: id(i), ClientID: "dedup", RWSet: protocol.RWSet{
			Writes: []protocol.WriteItem{{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}}}}
		tx.Endorsements = []protocol.Endorsement{{EndorserID: peer.ID, Signature: peer.Sign(tx.Digest())}}
		tx.RWSet.Precompute()
		if err := c.Step(consensus.Envelope{Tx: tx, SubmittedBy: "dedup"}, discard{}); err != nil {
			t.Fatal(err)
		}
	}
	const sealed = txs / 2
	if got := c.Chain().Len(); got != sealed {
		t.Fatalf("sealed %d blocks, want %d", got, sealed)
	}
	if c.seen[id(0)] {
		t.Errorf("first TxID still deduped after %d blocks (horizon 2)", sealed)
	}
	if !c.seen[id(txs-1)] {
		t.Error("most recent TxID evicted")
	}
	if len(c.seenByBlock) > 3 {
		t.Errorf("%d dedup buckets retained (horizon 2)", len(c.seenByBlock))
	}
	if c.seenFloor+2 < sealed {
		t.Errorf("eviction floor %d lags sealed height %d", c.seenFloor, sealed)
	}
}

// TestCoreIsPure is the seam that lets the Core be tested like a function:
// core.go may not reach for a clock, a lock, the file system, a socket or the
// transport layer. Those belong to the drivers.
func TestCoreIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"time": true, "sync": true, "os": true, "net": true, "fabricsharp/internal/transport": true}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if banned[path] || strings.HasPrefix(path, "sync/") || strings.HasPrefix(path, "net/") {
			t.Errorf("core.go imports %q", path)
		}
	}
}
