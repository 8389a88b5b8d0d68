package sched

import (
	"sort"

	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
)

// FabricPP models Fabric++ [26]: transactions that read across blocks were
// already aborted during simulation (the endorser applies
// ReadsAcrossBlocks); the orderer then reorders each block's transactions so
// that intra-block read-write conflicts serialize (readers before writers),
// aborting the transactions caught in conflict cycles. Reordering is
// strictly block-local — the limitation Proposition 3 exposes and Sharp
// removes.
type FabricPP struct {
	pending   []*protocol.Transaction
	nextBlock uint64
	timing    Timing
}

// NewFabricPP returns the Fabric++ scheduler.
func NewFabricPP() *FabricPP {
	return &FabricPP{nextBlock: 1}
}

// System implements Scheduler.
func (f *FabricPP) System() System { return SystemFabricPP }

// OnArrival implements Scheduler. Cross-block readers never get here (the
// endorser aborts them), so everything is admitted.
func (f *FabricPP) OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error) {
	w := metrics.StartWatch()
	f.pending = append(f.pending, tx)
	f.timing.Arrivals++
	f.timing.ArrivalNS += w.ElapsedNS()
	return protocol.Valid, nil
}

// OnBlockFormation implements Scheduler: builds the intra-block conflict
// graph (edge R -> W whenever W writes a key R reads, meaning R must
// serialize before W), eliminates cycles by dropping the most conflicted
// transactions, and emits a topological order of the survivors.
func (f *FabricPP) OnBlockFormation() (FormationResult, error) {
	if len(f.pending) == 0 {
		return FormationResult{Block: f.nextBlock}, nil
	}
	w := metrics.StartWatch()
	ordered, dropped := reorderBatch(f.pending)
	res := FormationResult{Block: f.nextBlock, Ordered: ordered}
	for _, tx := range dropped {
		res.DroppedTxs = append(res.DroppedTxs, Dropped{Tx: tx, Code: protocol.AbortReorderCycle})
	}
	f.pending = nil
	f.nextBlock++
	f.timing.Formations++
	f.timing.FormationNS += w.ElapsedNS()
	return res, nil
}

// OnBlockCommitted implements Scheduler (no feedback needed).
func (f *FabricPP) OnBlockCommitted(uint64, []*protocol.Transaction, []protocol.ValidationCode) {}

// NeedsMVCCValidation implements Scheduler: cross-block staleness still
// reaches the ledger and must be validated.
func (f *FabricPP) NeedsMVCCValidation() bool { return true }

// PendingCount implements Scheduler.
func (f *FabricPP) PendingCount() int { return len(f.pending) }

// ResidentKeys implements Scheduler: Fabric++'s conflict indices live for
// one formation, so none outlives a batch.
func (f *FabricPP) ResidentKeys() int { return 0 }

// Timing implements Scheduler.
func (f *FabricPP) Timing() Timing { return f.timing }

// reorderBatch performs Fabric++-style cycle elimination and topological
// reordering over one batch. It returns the serializable order and the
// transactions dropped to break cycles.
func reorderBatch(batch []*protocol.Transaction) (ordered, dropped []*protocol.Transaction) {
	n := len(batch)
	writers := map[string][]int{} // key -> batch indices writing it
	for i, tx := range batch {
		for _, k := range tx.RWSet.WriteKeys() {
			writers[k] = append(writers[k], i)
		}
	}
	// succ[r] holds w whenever r must precede w (r reads a key w writes),
	// pred[w] holds r. mark[w] == r+1 once r→w exists, so a pair sharing
	// several keys gets one edge. Readers are walked in batch order, so each
	// pred[w] comes out ascending; each succ[r] is sorted once.
	succ := make([][]int, n)
	pred := make([][]int, n)
	mark := make([]int, n)
	for r, tx := range batch {
		for _, k := range tx.RWSet.ReadKeys() {
			for _, w := range writers[k] {
				if w != r && mark[w] != r+1 {
					mark[w] = r + 1
					succ[r] = append(succ[r], w)
					pred[w] = append(pred[w], r)
				}
			}
		}
		sort.Ints(succ[r])
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// Iteratively drop the highest-degree member of any remaining cycle
	// (Fabric++ computes all cycles and aborts greedily; degree-based
	// elimination is the standard approximation and is deterministic).
	for {
		cyclic := cyclicNodes(n, alive, succ)
		if len(cyclic) == 0 {
			break
		}
		worst, worstDeg := -1, -1
		for _, i := range cyclic {
			deg := 0
			for _, j := range succ[i] {
				if alive[j] {
					deg++
				}
			}
			for _, j := range pred[i] {
				if alive[j] {
					deg++
				}
			}
			if deg > worstDeg || (deg == worstDeg && i < worst) {
				worst, worstDeg = i, deg
			}
		}
		alive[worst] = false
		dropped = append(dropped, batch[worst])
	}
	// Kahn topological sort of the survivors, FIFO tie-break.
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		for _, j := range succ[i] {
			if alive[j] {
				indeg[j]++
			}
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if alive[i] && indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		ordered = append(ordered, batch[i])
		for _, j := range succ[i] {
			if !alive[j] {
				continue
			}
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return ordered, dropped
}

// cyclicNodes returns the indices that belong to some non-trivial strongly
// connected component of the alive sub-graph (iterative Tarjan).
func cyclicNodes(n int, alive []bool, succ [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		cyclic  []int
	)
	type frame struct {
		v     int
		iter  []int
		child int
	}
	neighbors := func(v int) []int {
		out := make([]int, 0, len(succ[v]))
		for _, w := range succ[v] {
			if alive[w] {
				out = append(out, w)
			}
		}
		return out
	}
	for start := 0; start < n; start++ {
		if !alive[start] || index[start] != unvisited {
			continue
		}
		frames := []frame{{v: start, iter: neighbors(start)}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < len(f.iter) {
				w := f.iter[f.child]
				f.child++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, iter: neighbors(w)})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Pop the frame; maybe emit an SCC rooted here.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				// A single node is never cyclic: edges exclude r == w.
				if len(scc) > 1 {
					cyclic = append(cyclic, scc...)
				}
			}
		}
	}
	sort.Ints(cyclic)
	return cyclic
}
