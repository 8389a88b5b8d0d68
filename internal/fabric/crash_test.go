package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
)

// tortureNames is the peer set of the crash fixtures; the network that seals
// the chain and the bare peers that commit it share one dev MSP.
var tortureNames = []string{"peer0", "peer1"}

// newBarePeer builds one started peer outside any network — durable on dir,
// in-memory when dir is "" — validating as the fixture network's peers do
// under system with rescue on, and seeded with genesis when fresh.
func newBarePeer(t *testing.T, system sched.System, dir string, genesis ...protocol.WriteItem) (*Peer, error) {
	t.Helper()
	scheduler, err := sched.New(system, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msp, policy := identity.DevMSP(tortureNames...)
	p, err := NewPeer(PeerConfig{
		ID:       identity.Deterministic(tortureNames[0], identity.RolePeer),
		MSP:      msp,
		Policy:   policy,
		Registry: chaincode.NewRegistry(scenario.AllContracts()...),
		MVCC:     scheduler.NeedsMVCCValidation(),
		Rescue:   true,
		DataDir:  dir,
		Genesis:  genesis,
		OnError:  func(err error) { t.Error(err) },
	})
	if err != nil {
		return nil, err
	}
	t.Cleanup(p.Close)
	return p, nil
}

// sealChain runs drive against an in-memory network of the fixture's peers
// under system with rescue on, and returns the blocks its orderer sealed.
func sealChain(t *testing.T, system sched.System, blockSize int, drive func(c *Client)) []*ledger.Block {
	t.Helper()
	n, err := NewNetwork(Options{
		System:       system,
		Rescue:       true,
		Peers:        len(tortureNames),
		BlockSize:    blockSize,
		BlockTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	client, err := n.NewClient("fixture")
	if err != nil {
		t.Fatal(err)
	}
	drive(client)
	if !n.WaitIdle(10 * time.Second) {
		t.Fatalf("network did not go idle (err=%v)", n.Err())
	}
	var sealed []*ledger.Block
	n.OrdererChain().ForEach(func(b *ledger.Block) bool {
		sealed = append(sealed, b)
		return true
	})
	return sealed
}

// sealContended seals smallbank traffic that conflicts: three accounts, then
// four clients each sending payments round the ring of them.
func sealContended(t *testing.T, system sched.System, payments int) []*ledger.Block {
	t.Helper()
	return sealChain(t, system, 4, func(client *Client) {
		for i := 0; i < 3; i++ {
			if _, err := client.MustSubmit("smallbank", "create_account", fmt.Sprintf("h%d", i), "1000", "1000"); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < payments; i++ {
					client.Submit("smallbank", "send_payment", fmt.Sprintf("h%d", (w+i)%3), fmt.Sprintf("h%d", (w+i+1)%3), "1")
				}
			}(w)
		}
		wg.Wait()
	})
}

// rescuedBlocks lists the numbers of the blocks holding a Rescued verdict.
func rescuedBlocks(blocks []*ledger.Block) []uint64 {
	var nums []uint64
	for _, b := range blocks {
		for _, code := range b.Validation {
			if code == protocol.Rescued {
				nums = append(nums, b.Header.Number)
				break
			}
		}
	}
	return nums
}

// position is where a peer stands: chain tip, state, committed tally.
type position struct {
	tip       []byte
	state     string
	committed uint64
}

func positionOf(p *Peer) position {
	return position{p.Chain().TipHash(), p.State().StateFingerprint(), p.Chain().CommittedTxs()}
}

// referencePositions feeds sealed to an in-memory peer seeded with genesis,
// one block at a time, and returns where it stands after each prefix, the
// empty one first.
func referencePositions(t *testing.T, system sched.System, sealed []*ledger.Block, genesis ...protocol.WriteItem) []position {
	t.Helper()
	ref, err := newBarePeer(t, system, "", genesis...)
	if err != nil {
		t.Fatal(err)
	}
	at := []position{positionOf(ref)}
	for _, blk := range sealed {
		commitAll(t, ref, []*ledger.Block{blk})
		at = append(at, positionOf(ref))
	}
	return at
}

// checkPosition fails the test unless p stands at want.
func checkPosition(t *testing.T, what string, p *Peer, want position) {
	t.Helper()
	if got := positionOf(p); !bytes.Equal(got.tip, want.tip) || got.state != want.state || got.committed != want.committed {
		t.Fatalf("%s: tip %x state %s committed %d, reference has tip %x state %s committed %d",
			what, got.tip, got.state, got.committed, want.tip, want.state, want.committed)
	}
}

// commitAll delivers blocks to p and waits until it has committed them.
func commitAll(t *testing.T, p *Peer, blocks []*ledger.Block) {
	t.Helper()
	for _, blk := range blocks {
		p.Committer().Deliver(blk)
	}
	for deadline := time.Now().Add(10 * time.Second); !p.Committer().Idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("committer did not drain")
		}
	}
	if p.Committer().Failed() {
		t.FailNow()
	}
}

// copyTree copies the directory src into a fresh temporary directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestPeerWALTruncationTorture is the peer-level crash torture. An in-memory
// network seals 30+ contended blocks with rescue on and a bare durable peer
// commits them, so the stored records carry Rescued verdicts and digests.
// Then, for every write-ahead log under its directory and every cut of that
// log — each record boundary, one byte either side, and a seeded sample
// inside records — a peer is reopened on a copy of the directory with the
// log cut there. It must open; its state height must be its chain tip; tip
// hash, state fingerprint and committed tally must equal those of an
// in-memory reference peer fed the same block prefix; and delivered the rest
// of the chain it must end where the reference ends, and still be there when
// opened once more. With one store and one record per block a cut can only
// remove whole blocks from the end, so the prefix is also exactly the blocks
// whose records fit below the cut.
//
// The fixture's log stays below the store's checkpoint floor; a reopen
// across a checkpoint is TestPeerReopensAcrossCheckpoint's, and crashes
// inside one are internal/kvstore's TestCheckpointCrashPoints'.
func TestPeerWALTruncationTorture(t *testing.T) {
	sealed := sealContended(t, sched.SystemFabric, 32)
	if rescued := rescuedBlocks(sealed); len(sealed) < 30 || len(rescued) == 0 {
		t.Fatalf("fixture sealed %d blocks with %d holding rescued verdicts; need >= 30 and > 0", len(sealed), len(rescued))
	}

	// The reference: what a peer holds after each prefix of the chain.
	at := referencePositions(t, sched.SystemFabric, sealed)

	// The store under torture.
	dir := t.TempDir()
	durable, err := newBarePeer(t, sched.SystemFabric, dir)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, durable, sealed)
	checkPosition(t, "durable peer", durable, at[len(sealed)])
	durable.Close()

	var logs []string
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "wal.log" {
			logs = append(logs, path)
		}
		return nil
	})
	if len(logs) != 1 {
		t.Errorf("the peer keeps %d write-ahead logs %v; one commit point needs one", len(logs), logs)
	}
	rng := rand.New(rand.NewSource(29))
	for _, log := range logs {
		raw, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		// Record boundaries, by the framing internal/kvstore/wal.go
		// documents: crc uint32 | payloadLen uint32 | payload.
		bounds := []int{0}
		for off := 0; off+8 <= len(raw); {
			off += 8 + int(binary.LittleEndian.Uint32(raw[off+4:]))
			bounds = append(bounds, off)
		}
		if bounds[len(bounds)-1] != len(raw) || len(bounds)-1 != len(sealed) {
			t.Fatalf("%s: %d bytes frame as %d records ending at %d; want one record per block (%d) ending at the end",
				log, len(raw), len(bounds)-1, bounds[len(bounds)-1], len(sealed))
		}
		cuts := map[int]bool{}
		for _, b := range bounds {
			for _, l := range []int{b - 1, b, b + 1} {
				if l >= 0 && l <= len(raw) {
					cuts[l] = true
				}
			}
		}
		for i := 0; i < 60; i++ {
			cuts[rng.Intn(len(raw))] = true
		}
		for l := range cuts {
			what := fmt.Sprintf("%s cut at %d of %d", strings.TrimPrefix(log, dir), l, len(raw))
			cutDir := copyTree(t, dir)
			if err := os.Truncate(filepath.Join(cutDir, strings.TrimPrefix(log, dir)), int64(l)); err != nil {
				t.Fatal(err)
			}
			p, err := newBarePeer(t, sched.SystemFabric, cutDir)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tip, _ := p.Chain().Height()
			if p.State().Height() != tip {
				t.Fatalf("%s: chain tip %d, state height %d", what, tip, p.State().Height())
			}
			whole := 0
			for whole+1 < len(bounds) && bounds[whole+1] <= l {
				whole++
			}
			if int(tip) != whole {
				t.Fatalf("%s: reopened at block %d, the cut log holds %d whole records", what, tip, whole)
			}
			checkPosition(t, what, p, at[tip])
			commitAll(t, p, sealed[tip:])
			checkPosition(t, what+", caught up", p, at[len(sealed)])
			p.Close()
			// And the blocks committed behind the cut survive the next open.
			if p, err = newBarePeer(t, sched.SystemFabric, cutDir); err != nil {
				t.Fatalf("%s, second reopen: %v", what, err)
			}
			checkPosition(t, what+", reopened again", p, at[len(sealed)])
			p.Close()
		}
	}
}

// TestNewPeerRejectsTipAheadOfState hand-builds the directory the commit
// path cannot write — a block record with no height record — and checks the
// open-time comparison names both numbers instead of resuming on it.
func TestNewPeerRejectsTipAheadOfState(t *testing.T) {
	dir := t.TempDir()
	chain, err := ledger.NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := chain.Seal([]*protocol.Transaction{{ID: "t"}}, []protocol.ValidationCode{protocol.Valid})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.ApplyBatch([]kvstore.BatchOp{ledger.Record(blk)}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = newBarePeer(t, sched.SystemFabric, dir)
	if err == nil || !strings.Contains(err.Error(), "chain tip 1") || !strings.Contains(err.Error(), "state height 0") {
		t.Fatalf("NewPeer on a store with block 1 and no height record: %v", err)
	}
}

// TestPeerReopensAcrossCheckpoint reopens a durable peer whose store has
// checkpointed mid-chain. A genesis just under the store's 4 MiB checkpoint
// floor makes the first blocks tip the log over it, so they land in the
// snapshot and the blocks after them in the log. Reopened there, and again
// after the rest of the chain, the peer must stand where an in-memory
// reference fed the same blocks stands: chain tip, StateFingerprint and
// CommittedTxs.
func TestPeerReopensAcrossCheckpoint(t *testing.T) {
	sealed := sealContended(t, sched.SystemFabric, 16)
	genesis := make([]protocol.WriteItem, 255) // 255 × 16 KiB: ~10 KiB under the floor
	for i := range genesis {
		genesis[i] = protocol.WriteItem{Key: fmt.Sprintf("pad/%03d", i), Value: bytes.Repeat([]byte{byte(i)}, 16<<10)}
	}
	at := referencePositions(t, sched.SystemFabric, sealed, genesis...)

	dir := t.TempDir()
	logSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	p, err := newBarePeer(t, sched.SystemFabric, dir, genesis...)
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := 0 // blocks committed when the log was folded into the snapshot
	for i := 0; i < len(sealed) && checkpointed == 0; i++ {
		before := logSize()
		commitAll(t, p, sealed[i:i+1])
		if logSize() < before {
			checkpointed = i + 1
		}
	}
	if checkpointed == 0 || checkpointed >= len(sealed)-1 {
		t.Fatalf("the store checkpointed after block %d of %d; the fixture needs it mid-chain (0: never)", checkpointed, len(sealed))
	}
	t.Logf("the store checkpointed after block %d of %d", checkpointed, len(sealed))
	stop := min(checkpointed+3, len(sealed)-1) // a few blocks in the log on top
	commitAll(t, p, sealed[checkpointed:stop])
	p.Close()

	if p, err = newBarePeer(t, sched.SystemFabric, dir, genesis...); err != nil {
		t.Fatal(err)
	}
	checkPosition(t, fmt.Sprintf("reopened at block %d, checkpointed at %d", stop, checkpointed), p, at[stop])
	commitAll(t, p, sealed[stop:])
	checkPosition(t, "caught up", p, at[len(sealed)])
	p.Close()
	if p, err = newBarePeer(t, sched.SystemFabric, dir, genesis...); err != nil {
		t.Fatal(err)
	}
	checkPosition(t, "reopened at the tip", p, at[len(sealed)])
}
