package network

import (
	"fmt"
	"sort"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// VerifySerializability is the end-to-end correctness check for a run: it
// rebuilds the exact precedence graph of the committed transactions from
// their recorded read versions and commit positions (wr, ww and anti-rw
// dependencies), demands it be acyclic, then re-executes the real contracts
// serially in a topological order against a copy of the genesis state and
// requires the final contents to equal the pipeline's final state
// byte-for-byte. That is precisely One-Copy Serializability — the guarantee
// Theorem 1/2 promise for every system under comparison.
//
// For the strongly serializable systems (fabric, fabric++, focc-l) the
// ledger order itself is the serial order, which the topological sort
// reproduces because every dependency there follows commit order.
//
// Rescued transactions (post-order re-execution) are committed too, at their
// protocol.CommitPositions version — after the whole block. Their recorded
// read set describes the endorsement-time simulation, NOT the re-execution,
// so no precedence edges are derived from it; instead a rescued transaction
// is pinned into version order against every committed writer of a key in
// its declared read/write sets (a superset of what the re-execution touched,
// by the rescue phase's containment rule): it read the state at its own
// commit point, so every earlier writer precedes it and every later one
// follows. On the strongly serializable systems every dependency follows
// version order and these edges can never create a cycle. On fabric# and
// focc-s (the deferred tail) they are what catches a scheduler that forgot a
// rescued transaction: a later transaction that read a version the rescue
// overwrote precedes it (anti-rw), and if it also overwrites what the rescue
// read the pin closes the cycle.
func VerifySerializability(res *Result) error {
	type committedTx struct {
		tx      *protocol.Transaction
		ver     seqno.Seq
		rescued bool
	}
	var committed []committedTx
	var walkErr error
	res.Chain.ForEach(func(b *ledger.Block) bool {
		if len(b.Validation) != len(b.Transactions) {
			walkErr = fmt.Errorf("network: block %d missing validation metadata", b.Header.Number)
			return false
		}
		pos := protocol.CommitPositions(b.Validation)
		for i, tx := range b.Transactions {
			if b.Validation[i].Committed() {
				committed = append(committed, committedTx{
					tx:      tx,
					ver:     seqno.Commit(b.Header.Number, pos[i]),
					rescued: b.Validation[i] == protocol.Rescued,
				})
			}
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	// Rescued commit positions sit above the in-block positions, so the walk
	// order above is not version order; the graph construction below (ww
	// edges, ledger-order tie-breaks) relies on index order == version order.
	sort.Slice(committed, func(i, j int) bool { return committed[i].ver.Less(committed[j].ver) })
	n := len(committed)
	byVersion := map[seqno.Seq]int{}
	writersOf := map[string][]int{} // ledger order == version order
	for i, c := range committed {
		byVersion[c.ver] = i
		for _, k := range c.tx.RWSet.WriteKeys() {
			writersOf[k] = append(writersOf[k], i)
		}
	}

	succ := make([]map[int]struct{}, n)
	indeg := make([]int, n)
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		if succ[from] == nil {
			succ[from] = map[int]struct{}{}
		}
		if _, dup := succ[from][to]; !dup {
			succ[from][to] = struct{}{}
			indeg[to]++
		}
	}
	for i, c := range committed {
		if c.rescued {
			// The recorded reads are pre-rescue; pin the transaction into
			// version order against every committed writer of its declared
			// keys instead (see the function comment).
			for _, k := range append(c.tx.RWSet.ReadKeys(), c.tx.RWSet.WriteKeys()...) {
				for _, w := range writersOf[k] {
					if w < i {
						addEdge(w, i)
					} else if w > i {
						addEdge(i, w)
					}
				}
			}
			continue
		}
		for _, r := range c.tx.RWSet.Reads {
			// wr: the writer of the version read precedes the reader.
			// Genesis versions (block 0) and absent reads have no writer.
			if r.Version.Block > 0 {
				if w, ok := byVersion[r.Version]; ok {
					addEdge(w, i)
				}
			}
			// anti-rw: the reader precedes every later writer of the key.
			for _, w := range writersOf[r.Key] {
				if r.Version.Less(committed[w].ver) {
					addEdge(i, w)
				}
			}
		}
	}
	for _, ws := range writersOf {
		for i := 0; i+1 < len(ws); i++ {
			addEdge(ws[i], ws[i+1]) // ww in commit order
		}
	}

	// Kahn topological sort with ledger-order tie-break.
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for s := range succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		var stuck []protocol.TxID
		for i := 0; i < n && len(stuck) < 8; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, committed[i].tx.ID)
			}
		}
		return fmt.Errorf("network: committed schedule has a dependency cycle (system %s, %d of %d unordered, e.g. %v)",
			res.Config.System, n-len(order), n, stuck)
	}

	// Serial re-execution of the real contracts in the equivalent order,
	// against the same contract set the run deployed (the registry-backed
	// default covers every registered scenario).
	replay := res.Genesis.Clone()
	contracts := res.Config.Contracts
	if len(contracts) == 0 {
		contracts = scenario.AllContracts()
	}
	registry := chaincode.NewRegistry(contracts...)
	for step, idx := range order {
		c := committed[idx]
		contract, ok := registry.Get(c.tx.Contract)
		if !ok {
			return fmt.Errorf("network: unknown contract %q", c.tx.Contract)
		}
		rwset, err := chaincode.Simulate(contract, c.tx.Function, c.tx.Args, serialReader{db: replay})
		if err != nil {
			return fmt.Errorf("network: serial re-execution of %s failed: %w", c.tx.ID, err)
		}
		if err := replay.ApplyBlock(replay.Height()+1, []statedb.BlockWrites{{Pos: 1, Writes: rwset.Writes}}); err != nil {
			return fmt.Errorf("network: replay apply at step %d: %w", step, err)
		}
	}
	if got, want := replay.StateFingerprint(), res.State.StateFingerprint(); got != want {
		return fmt.Errorf("network: serial re-execution diverged from pipeline state (system %s): %s != %s",
			res.Config.System, got, want)
	}
	return nil
}

// serialReader reads the latest state during serial re-execution.
type serialReader struct{ db *statedb.DB }

func (r serialReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	vv, ok := r.db.Get(key)
	if !ok {
		return nil, seqno.Seq{}, false, nil
	}
	return vv.Value, vv.Version, true, nil
}

// ReadRange implements chaincode.RangeReader for contracts using range
// scans.
func (r serialReader) ReadRange(start, end string) ([]string, error) {
	return r.db.KeysInRange(start, end, r.db.Height()), nil
}
