// Package reexec implements post-order speculative re-execution: a
// deterministic rescue phase that takes a sealed block's conflict-aborted
// transactions (MVCC casualties, or the tail a pre-ordering scheduler
// deferred) and re-runs their chaincode against a Block-STM-style
// multi-version scratch overlaying the committed state, so hot-key
// workloads commit near the conflict-free ceiling instead of throwing half
// the block away (XOX Fabric, Block-STM).
//
// The phase is optimistic and parallel but its outcome is serial-equivalent
// to a fixed post-order: first the block's valid transactions in block order
// (that part is the block's normal effect), then the rescued transactions in
// block order. Re-executions therefore read the block's FINAL valid state —
// they happen "after" the block — and their committed writes land at
// positions above every in-block position (N+1..N+R for a block of N
// transactions, see commit.WritesForRescued), so last-writer-wins ordering
// matches the serial order. Because no valid transaction ever observes a
// rescued write, rescuing can never invalidate a sealed Valid verdict.
// Every replica that runs the phase over the same base state and the same
// sealed block derives bit-identical codes and write sets:
//
//   - Rescue candidates (MVCCConflict verdicts, or — under a scheduler that
//     skips MVCC — the deferred tail's protocol.Deferrable arrival codes,
//     whose invocation is carried in the transaction) are partitioned into
//     key-disjoint conflict groups by the same union-find rule
//     internal/commit uses; groups share no keys (a containment check below
//     keeps that true even for re-executed key sets), so they run
//     concurrently without observing each other.
//   - Within a group, rounds of speculative execution run every pending
//     candidate in parallel against the round-start scratch, then a serial
//     accept pass in block order validates each candidate's recorded reads
//     against the current scratch versions. The pass finalizes candidates
//     until the first invalidated one — everything at or after it re-executes
//     next round. Finalization therefore happens in strict position order,
//     which is exactly why a finalized verdict is final: all scratch writes
//     ordered below a candidate are settled when it is accepted.
//   - The first pending candidate always validates (nothing ordered below it
//     can change between its execution and its accept), so every round makes
//     progress and the loop terminates in at most |group| rounds.
//
// A candidate whose re-execution fails (e.g. a transfer from an account
// that still does not exist) with validated reads is deterministically left
// aborted; likewise one whose re-executed read/write keys escape its
// declared read/write key set (which would break group disjointness — no
// shipped contract does this, since their key sets are argument-determined).
//
// Versioning inside the run: seed entries (the valid transactions' writes)
// are tagged with their in-block position, scratch entries (accepted
// rescues) with theirs; a transaction is either valid or a candidate, so the
// tags never collide, and base versions always come from earlier blocks — a
// read's provenance is unambiguous. The tags order only the candidates among
// themselves: the seed is visible to every candidate in full (post-order),
// and a scratch entry shadows any seed entry for the same key. The phase's
// outcome is sealed into the block as a digest over the rescued write sets;
// peers re-derive it and byte-assert, the same replica-agreement contract
// PR 3 established for verdicts.
package reexec

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/conflict"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// StateSource resolves reads against the state committed before the block
// being rescued. Implementations must be safe for concurrent readers and
// must return versions from earlier blocks only (the committer's statedb at
// height block-1, or the orderer's value-tracking shadow). The returned
// value must not be mutated by the caller.
type StateSource interface {
	Read(key string) (value []byte, version seqno.Seq, found bool)
}

// Options configures a rescue run.
type Options struct {
	// Registry resolves the contracts to re-execute. Transactions whose
	// contract is not deployed (or that carry no invocation) are not
	// candidates and keep their abort verdict.
	Registry *chaincode.Registry
	// Workers caps execution parallelism; 0 means GOMAXPROCS. The worker
	// count never affects the outcome, only the wall clock.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome is the deterministic result of one rescue run.
type Outcome struct {
	// Codes are the final per-transaction codes: the input codes with every
	// successfully rescued candidate flipped to Rescued.
	Codes []protocol.ValidationCode
	// Writes holds, per transaction position, the re-executed write set of
	// rescued transactions (nil for every other position).
	Writes [][]protocol.WriteItem
	// Digest commits to the rescued positions and write sets; nil when no
	// transaction was rescued. Replicas byte-assert it against the sealed
	// block.
	Digest []byte
	// Attempted counts rescue candidates; Rescued those that committed.
	Attempted int
	Rescued   int
	// Rounds is the maximum speculative round count over all groups (0 when
	// nothing was attempted); Groups the number of key-disjoint groups.
	Rounds int
	Groups int
}

// StillAborted counts candidates the rescue could not commit.
func (o Outcome) StillAborted() int { return o.Attempted - o.Rescued }

// Run re-executes the block's candidates (see the package comment) against
// base and returns the rescued outcome. codes is not mutated; txs and base
// are only read.
func Run(base StateSource, block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode, opts Options) Outcome {
	out := Outcome{Codes: append([]protocol.ValidationCode(nil), codes...)}
	if opts.Registry == nil {
		return out
	}
	// contracts[i] is non-nil exactly for the candidates; most blocks have
	// none and allocate nothing here.
	var contracts []chaincode.Contract
	for i, tx := range txs {
		if (codes[i] != protocol.MVCCConflict && !codes[i].Deferrable()) || tx.Function == "" {
			continue
		}
		c, ok := opts.Registry.Get(tx.Contract)
		if !ok {
			continue
		}
		if contracts == nil {
			contracts = make([]chaincode.Contract, len(txs))
		}
		contracts[i] = c
		out.Attempted++
	}
	if out.Attempted == 0 {
		return out
	}

	// The valid transactions' declared writes seed the run: candidates
	// serialize after the whole block, so they see the block's final valid
	// state. The seed is immutable for the whole run and shared read-only by
	// every group.
	seed := map[string][]mvEntry{}
	for i, tx := range txs {
		if codes[i] != protocol.Valid {
			continue
		}
		for _, w := range tx.RWSet.Writes {
			seed[w.Key] = append(seed[w.Key], mvEntry{pos: uint32(i + 1), value: w.Value, deleted: w.Delete})
		}
	}

	groups := conflict.Partition(txs, func(i int) bool { return contracts[i] != nil })
	out.Groups = len(groups)
	out.Writes = make([][]protocol.WriteItem, len(txs))
	rounds := make([]int, len(groups))
	workers := opts.workers()
	// Groups are key-disjoint, so they write disjoint elements of
	// out.Codes/out.Writes and never observe each other's scratch.
	conflict.ParallelFor(len(groups), workers, func(gi int) {
		g := &groupState{base: base, block: block, seed: seed, scratch: map[string][]mvEntry{}}
		rounds[gi] = runGroup(g, groups[gi], txs, contracts, out.Codes, out.Writes, workers)
	})

	for i, code := range out.Codes {
		if code == protocol.Rescued {
			out.Rescued++
		} else {
			out.Writes[i] = nil
		}
	}
	for _, r := range rounds {
		if r > out.Rounds {
			out.Rounds = r
		}
	}
	out.Digest = WriteSetDigest(out.Codes, out.Writes)
	return out
}

// runGroup drives one conflict group to completion and returns its round
// count. It finalizes candidates strictly in position order (see the package
// comment for why that makes finalization sound).
func runGroup(g *groupState, group []int, txs []*protocol.Transaction, contracts []chaincode.Contract,
	codes []protocol.ValidationCode, writes [][]protocol.WriteItem, workers int) int {
	type execResult struct {
		rw  protocol.RWSet
		err error
	}
	pending := group
	rounds := 0
	for len(pending) > 0 {
		rounds++
		// Speculative phase: every pending candidate executes against the
		// round-start scratch (frozen — mutations happen only in the accept
		// pass below), so results are independent of scheduling.
		exec := make([]execResult, len(pending))
		conflict.ParallelFor(len(pending), workers, func(k int) {
			i := pending[k]
			tx := txs[i]
			rw, err := chaincode.SimulateAttempt(contracts[i], tx.Function, tx.Args, &groupReader{g: g, limit: uint32(i + 1)})
			exec[k] = execResult{rw: rw, err: err}
		})
		// Accept pass: serial, block order, stops at the first candidate
		// whose recorded reads no longer match the scratch (a lower accepted
		// candidate overwrote them this round — it must re-execute).
		done := 0
		for k, i := range pending {
			if !g.readsCurrent(uint32(i+1), exec[k].rw.Reads) {
				break
			}
			done = k + 1
			if exec[k].err != nil {
				continue // deterministic failure on final reads: stays aborted
			}
			if !contained(txs[i], exec[k].rw) {
				continue // escaped its declared key set: stays aborted
			}
			codes[i] = protocol.Rescued
			writes[i] = exec[k].rw.Writes
			g.commit(uint32(i+1), exec[k].rw.Writes)
		}
		pending = pending[done:]
	}
	return rounds
}

// contained reports whether a re-execution stayed inside the transaction's
// declared key sets: writes within the declared write keys, reads within the
// declared read or write keys. Group partitioning reasons over the declared
// sets, so an escape would let two groups touch the same key; such a
// candidate is deterministically left aborted instead.
func contained(tx *protocol.Transaction, rw protocol.RWSet) bool {
	declaredW := tx.RWSet.WriteKeys()
	declaredR := tx.RWSet.ReadKeys()
	allowed := make(map[string]uint8, len(declaredW)+len(declaredR))
	for _, k := range declaredR {
		allowed[k] |= 1
	}
	for _, k := range declaredW {
		allowed[k] |= 2
	}
	for _, w := range rw.Writes {
		if allowed[w.Key]&2 == 0 {
			return false
		}
	}
	for _, r := range rw.Reads {
		if allowed[r.Key] == 0 {
			return false
		}
	}
	return true
}

// mvEntry is one multi-version scratch write: the block-relative position
// that produced it and the value (or tombstone).
type mvEntry struct {
	pos     uint32
	value   []byte
	deleted bool
}

// groupState is one group's view of the block: the shared immutable seed
// (the valid transactions' writes — the block's final valid state), the
// group-local scratch of accepted rescue writes (ascending position —
// finalization order guarantees it), and the pre-block base state.
type groupState struct {
	base    StateSource
	block   uint64
	seed    map[string][]mvEntry
	scratch map[string][]mvEntry
}

// resolve returns the value and version visible to a candidate read at
// position limit (exclusive): the highest-position scratch write below limit
// if any (an earlier-accepted rescue — rescues serialize in block order among
// themselves), else the last seed write regardless of position (the block's
// final valid state — rescues serialize after ALL valid transactions), else
// the base state.
func (g *groupState) resolve(key string, limit uint32) ([]byte, seqno.Seq, bool) {
	best, ok := latestBelow(g.scratch[key], limit)
	if !ok {
		if entries := g.seed[key]; len(entries) > 0 {
			best, ok = entries[len(entries)-1], true
		}
	}
	if ok {
		if best.deleted {
			return nil, seqno.Seq{}, false
		}
		return best.value, seqno.Commit(g.block, best.pos), true
	}
	return g.base.Read(key)
}

func latestBelow(entries []mvEntry, limit uint32) (mvEntry, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].pos < limit {
			return entries[i], true
		}
	}
	return mvEntry{}, false
}

// readsCurrent reports whether every recorded read still resolves to the
// version it observed (zero version matching "absent") — the same freshness
// rule validation.ReadsFresh applies, against the scratch's version vector.
func (g *groupState) readsCurrent(limit uint32, reads []protocol.ReadItem) bool {
	for _, r := range reads {
		_, ver, found := g.resolve(r.Key, limit)
		observedExisting := r.Version != seqno.Seq{}
		if found != observedExisting {
			return false
		}
		if found && ver != r.Version {
			return false
		}
	}
	return true
}

// commit records an accepted candidate's writes in the scratch. Accepted
// positions are strictly increasing, so appending keeps entries sorted.
func (g *groupState) commit(pos uint32, ws []protocol.WriteItem) {
	for _, w := range ws {
		g.scratch[w.Key] = append(g.scratch[w.Key], mvEntry{pos: pos, value: w.Value, deleted: w.Delete})
	}
}

// groupReader adapts a groupState to the chaincode.StateReader the
// simulation harness consumes. It never errors: the multi-version scratch
// and the base are both in memory.
type groupReader struct {
	g     *groupState
	limit uint32
}

func (r *groupReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	v, ver, ok := r.g.resolve(key, r.limit)
	return v, ver, ok, nil
}

// WriteSetDigest commits to a block's rescued positions and re-executed
// write sets: for each Rescued position in block order, the 1-based
// position, the write count, and each write's key, value, and delete flag
// (length-prefixed). It returns nil when no position is Rescued, so blocks
// without rescues stay byte-identical to the pre-rescue encoding.
func WriteSetDigest(codes []protocol.ValidationCode, writes [][]protocol.WriteItem) []byte {
	h := sha256.New()
	any := false
	var n [4]byte
	u32 := func(v uint32) {
		binary.BigEndian.PutUint32(n[:], v)
		h.Write(n[:])
	}
	str := func(s []byte) {
		u32(uint32(len(s)))
		h.Write(s)
	}
	for i, code := range codes {
		if code != protocol.Rescued {
			continue
		}
		any = true
		u32(uint32(i + 1))
		ws := writes[i]
		u32(uint32(len(ws)))
		for _, w := range ws {
			str([]byte(w.Key))
			str(w.Value)
			if w.Delete {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	if !any {
		return nil
	}
	return h.Sum(nil)
}

// DBSource adapts the committed state database to a StateSource (the peer
// committer's base). The database's own locking covers the concurrent reads
// of the speculative phase; blocks are applied only after rescue completes,
// so the view is the pre-block height throughout a run.
func DBSource(db *statedb.DB) StateSource { return dbSource{db} }

type dbSource struct{ db *statedb.DB }

func (s dbSource) Read(key string) ([]byte, seqno.Seq, bool) {
	vv, ok := s.db.Get(key)
	if !ok {
		return nil, seqno.Seq{}, false
	}
	return vv.Value, vv.Version, true
}
