package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fabricsharp/internal/protocol"
)

// Timeline is one transaction's cross-node stage timeline: per stage, the
// merged wall-clock stamp (UnixNano), 0 when no node recorded it.
type Timeline struct {
	TxID string
	// Stamp is indexed by Stage (index 0 unused).
	Stamp [NumStages + 1]int64
	// Deferred is the scheduler's arrival code when the orderer deferred the
	// transaction to its block's tail instead of admitting it (the order
	// stamp's detail, see Event.Block); zero — protocol.Valid — otherwise.
	Deferred protocol.ValidationCode
}

// Has reports whether stage was observed.
func (t *Timeline) Has(s Stage) bool { return t.Stamp[s] != 0 }

// Path renders the stages the transaction crossed, in pipeline order — "why
// did this abort, how did this commit" as one line: a deferred-and-rescued
// transaction reads "submit → defer(cycle) → seal → deliver → validate →
// commit → rescue", one whose re-execution failed lacks the last step.
func (t *Timeline) Path() string {
	var steps []string
	for s := StageSubmit; s < stageEnd; s++ {
		switch {
		case !t.Has(s):
		case s == StageOrder && t.Deferred != protocol.Valid:
			steps = append(steps, fmt.Sprintf("defer(%v)", t.Deferred))
		default:
			steps = append(steps, s.String())
		}
	}
	return strings.Join(steps, " → ")
}

// Merge joins per-node dumps by TxID into one timeline per transaction,
// sorted by TxID. Single-origin stages (submit, order, raft-commit, seal)
// keep the earliest stamp — duplicates come from orderer replicas recording
// the same stream position, and the first observation is the stage
// boundary. Replicated stages (deliver, validate, commit, rescue) keep the
// latest stamp across peers: end-to-end latency means every observed peer
// settled the transaction, matching the cluster's convergence contract.
//
// Joining assumes the nodes' clocks are comparable (same host, or tightly
// synchronized); cross-host skew shows up as distorted — never negative,
// Summarize clamps — stage gaps.
func Merge(dumps []Dump) []Timeline {
	byID := make(map[string]*Timeline)
	for _, d := range dumps {
		for _, ev := range d.Events {
			if ev.Stage.cut() {
				continue
			}
			tl := byID[ev.TxID]
			if tl == nil {
				tl = &Timeline{TxID: ev.TxID}
				byID[ev.TxID] = tl
			}
			if ev.Stage == StageOrder && ev.Block != 0 {
				tl.Deferred = protocol.ValidationCode(ev.Block)
			}
			cur := tl.Stamp[ev.Stage]
			switch ev.Stage {
			case StageDeliver, StageValidate, StageCommit, StageRescue:
				if cur == 0 || ev.WallNS > cur {
					tl.Stamp[ev.Stage] = ev.WallNS
				}
			default:
				if cur == 0 || ev.WallNS < cur {
					tl.Stamp[ev.Stage] = ev.WallNS
				}
			}
		}
	}
	out := make([]Timeline, 0, len(byID))
	for _, tl := range byID {
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TxID < out[j].TxID })
	return out
}

// Quantiles is the latency summary shape shared by stage gaps and totals,
// in milliseconds.
type Quantiles struct {
	N    int
	P50  float64
	P90  float64
	P99  float64
	P999 float64
	Max  float64
}

// StageGap summarizes the latency between two adjacent observed stages.
type StageGap struct {
	From, To Stage
	Quantiles
}

// Summary is the end-to-end latency report over a merged timeline set.
type Summary struct {
	// Timelines is the number of joined transactions.
	Timelines int
	// Gaps holds per-stage-transition latency quantiles, pipeline order,
	// only transitions that at least one transaction exhibited.
	Gaps []StageGap
	// Total is submit → commit latency over transactions observed at both
	// boundaries (seal → commit only exists when peers were dumped).
	Total Quantiles
}

// Summarize computes stage-transition and total latency quantiles from
// merged timelines. For each transaction, a gap is taken between every
// pair of *consecutively observed* stages (a standalone orderer has no
// raft-commit stamp, so its gap runs order → seal directly). Negative gaps
// — cross-node clock skew — clamp to zero.
func Summarize(timelines []Timeline) Summary {
	gapSamples := make(map[[2]Stage][]float64)
	var totals []float64
	for i := range timelines {
		tl := &timelines[i]
		prev := Stage(0)
		for s := StageSubmit; s < stageEnd; s++ {
			if !tl.Has(s) {
				continue
			}
			if prev != 0 {
				d := float64(tl.Stamp[s]-tl.Stamp[prev]) / 1e6
				if d < 0 {
					d = 0
				}
				k := [2]Stage{prev, s}
				gapSamples[k] = append(gapSamples[k], d)
			}
			prev = s
		}
		if tl.Has(StageSubmit) && tl.Has(StageCommit) {
			d := float64(tl.Stamp[StageCommit]-tl.Stamp[StageSubmit]) / 1e6
			if d < 0 {
				d = 0
			}
			totals = append(totals, d)
		}
	}
	sum := Summary{Timelines: len(timelines), Total: quantiles(totals)}
	keys := make([][2]Stage, 0, len(gapSamples))
	for k := range gapSamples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		sum.Gaps = append(sum.Gaps, StageGap{From: k[0], To: k[1], Quantiles: quantiles(gapSamples[k])})
	}
	return sum
}

// Coverage reports the fraction of ids whose timeline carries every
// required stage — the smoke's "≥99% of committed transactions have full
// timelines" assertion. With no ids it returns 1 (vacuous).
func Coverage(timelines []Timeline, ids []string, required ...Stage) float64 {
	if len(ids) == 0 {
		return 1
	}
	byID := make(map[string]*Timeline, len(timelines))
	for i := range timelines {
		byID[timelines[i].TxID] = &timelines[i]
	}
	covered := 0
	for _, id := range ids {
		tl := byID[id]
		if tl == nil {
			continue
		}
		ok := true
		for _, s := range required {
			if !tl.Has(s) {
				ok = false
				break
			}
		}
		if ok {
			covered++
		}
	}
	return float64(covered) / float64(len(ids))
}

// quantiles computes the exact order statistics of ms samples (sorting a
// drained sample set once — this is drain-time reporting, not a hot path).
func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return Quantiles{
		N:    len(sorted),
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  sorted[len(sorted)-1],
	}
}

// Format renders the summary as the fixed-width table `sharpnet load` and
// `sharpnet trace` print.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage transition      count     p50ms     p90ms     p99ms    p999ms     maxms\n")
	for _, g := range s.Gaps {
		fmt.Fprintf(&b, "%-9s→ %-9s %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			g.From, g.To, g.N, g.P50, g.P90, g.P99, g.P999, g.Max)
	}
	if s.Total.N > 0 {
		fmt.Fprintf(&b, "%-20s %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			"total submit→commit", s.Total.N, s.Total.P50, s.Total.P90, s.Total.P99, s.Total.P999, s.Total.Max)
	}
	return b.String()
}

// CutRow is one block's cut as an orderer's ring recorded it: the duration of
// each block-keyed stage in ns, indexed by stage - StageFormation (0 where
// the ring no longer holds the event).
type CutRow struct {
	Block uint64
	NS    [NumCutStages]int64
}

// Cuts collects one dump's block-keyed events into one row per block, in
// block order.
func Cuts(d Dump) []CutRow {
	byBlock := map[uint64]*CutRow{}
	for _, ev := range d.Events {
		if !ev.Stage.cut() {
			continue
		}
		num, err := strconv.ParseUint(ev.TxID, 10, 64)
		if err != nil {
			continue
		}
		row := byBlock[num]
		if row == nil {
			row = &CutRow{Block: num}
			byBlock[num] = row
		}
		row.NS[ev.Stage-StageFormation] = int64(ev.Block)
	}
	out := make([]CutRow, 0, len(byBlock))
	for _, row := range byBlock {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// ms returns the row's columns in ms: the four stages, "other" — the cut
// less its stages, i.e. the seal and the shadow state's apply — and the cut.
func (r CutRow) ms() (c [NumCutStages + 1]float64) {
	other := r.NS[NumCutStages-1]
	for i := 0; i < NumCutStages-1; i++ {
		c[i] = float64(r.NS[i]) / 1e6
		other -= r.NS[i]
	}
	c[NumCutStages-1], c[NumCutStages] = float64(other)/1e6, float64(r.NS[NumCutStages-1])/1e6
	return c
}

// FormatCuts renders the cut breakdown `sharpnet trace` prints, in ms: each
// column's p50/p99/max over the blocks whose whole cut the ring holds, then
// the last `last` of those blocks one per line.
func FormatCuts(rows []CutRow, last int) string {
	var whole []CutRow
	var cols [NumCutStages + 1][]float64
	for _, r := range rows {
		if r.NS[NumCutStages-1] != 0 {
			whole = append(whole, r)
			for i, v := range r.ms() {
				cols[i] = append(cols[i], v)
			}
		}
	}
	var b strings.Builder
	line := func(label string, at func(i int) float64) {
		fmt.Fprintf(&b, "%-14s", label)
		for i := range cols {
			fmt.Fprintf(&b, " %9.2f", at(i))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %9s %9s %9s\n", fmt.Sprintf("%d cuts, ms", len(whole)),
		StageFormation, StagePrecheck, StageReexec, StageFeedback, "other", StageCut)
	if len(whole) == 0 {
		return b.String()
	}
	var qs [len(cols)]Quantiles
	for i := range cols {
		qs[i] = quantiles(cols[i])
	}
	line("p50", func(i int) float64 { return qs[i].P50 })
	line("p99", func(i int) float64 { return qs[i].P99 })
	line("max", func(i int) float64 { return qs[i].Max })
	for _, r := range whole[max(0, len(whole)-last):] {
		c := r.ms()
		line(fmt.Sprintf("block %d", r.Block), func(i int) float64 { return c[i] })
	}
	return b.String()
}
