package trace

import (
	"math"
	"strings"
	"testing"

	"fabricsharp/internal/protocol"
)

func ms(n float64) int64 { return int64(n * 1e6) }

func TestMergeJoinsByTxID(t *testing.T) {
	dumps := []Dump{
		{Node: "ord0", Role: "orderer", Events: []Event{
			{TxID: "a", Stage: StageSubmit, WallNS: ms(1)},
			{TxID: "a", Stage: StageOrder, WallNS: ms(2)},
			{TxID: "a", Stage: StageSeal, Block: 1, WallNS: ms(3)},
			{TxID: "b", Stage: StageSubmit, WallNS: ms(5)},
		}},
		// A follower replica records the same single-origin stages slightly
		// later; the merge must keep the earliest.
		{Node: "ord1", Role: "orderer", Events: []Event{
			{TxID: "a", Stage: StageOrder, WallNS: ms(2.5)},
			{TxID: "a", Stage: StageSeal, Block: 1, WallNS: ms(3.5)},
		}},
		// Two peers: replicated stages keep the latest (slowest peer).
		{Node: "peer0", Role: "peer", Events: []Event{
			{TxID: "a", Stage: StageDeliver, Block: 1, WallNS: ms(4)},
			{TxID: "a", Stage: StageCommit, Block: 1, WallNS: ms(6)},
		}},
		{Node: "peer1", Role: "peer", Events: []Event{
			{TxID: "a", Stage: StageDeliver, Block: 1, WallNS: ms(4.5)},
			{TxID: "a", Stage: StageCommit, Block: 1, WallNS: ms(7)},
		}},
	}
	tls := Merge(dumps)
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2 (a, b)", len(tls))
	}
	a := tls[0]
	if a.TxID != "a" {
		t.Fatalf("timelines not sorted: first is %q", a.TxID)
	}
	for _, tc := range []struct {
		stage Stage
		want  int64
	}{
		{StageSubmit, ms(1)},
		{StageOrder, ms(2)},     // earliest across replicas
		{StageSeal, ms(3)},      // earliest
		{StageDeliver, ms(4.5)}, // latest across peers
		{StageCommit, ms(7)},    // latest
	} {
		if got := a.Stamp[tc.stage]; got != tc.want {
			t.Errorf("a.%v = %d, want %d", tc.stage, got, tc.want)
		}
	}
	if a.Has(StageRaftCommit) {
		t.Error("a has a raft-commit stamp but none was recorded")
	}
}

func TestSummarizeGapsAndTotal(t *testing.T) {
	// Ten transactions: submit at 1ms, order at 2ms, seal at 3ms, commit
	// at 3+i ms — total latency i+2 ms for i in [0,10). (A zero stamp
	// means "stage missing", so the schedule starts at 1ms.)
	var dumps []Dump
	for i := 0; i < 10; i++ {
		id := string(rune('a' + i))
		dumps = append(dumps, Dump{Node: "n", Events: []Event{
			{TxID: id, Stage: StageSubmit, WallNS: ms(1)},
			{TxID: id, Stage: StageOrder, WallNS: ms(2)},
			{TxID: id, Stage: StageSeal, WallNS: ms(3)},
			{TxID: id, Stage: StageCommit, WallNS: ms(float64(3 + i))},
		}})
	}
	sum := Summarize(Merge(dumps))
	if sum.Timelines != 10 {
		t.Fatalf("Timelines = %d, want 10", sum.Timelines)
	}
	wantGaps := [][2]Stage{
		{StageSubmit, StageOrder},
		{StageOrder, StageSeal},
		{StageSeal, StageCommit},
	}
	if len(sum.Gaps) != len(wantGaps) {
		t.Fatalf("got %d gaps (%v), want %d", len(sum.Gaps), sum.Gaps, len(wantGaps))
	}
	for i, g := range sum.Gaps {
		if g.From != wantGaps[i][0] || g.To != wantGaps[i][1] {
			t.Errorf("gap %d = %v→%v, want %v→%v", i, g.From, g.To, wantGaps[i][0], wantGaps[i][1])
		}
	}
	// submit→order is exactly 1ms for every tx.
	if g := sum.Gaps[0]; g.N != 10 || g.P50 != 1 || g.P999 != 1 {
		t.Errorf("submit→order = %+v, want N=10 all-1ms", g.Quantiles)
	}
	// Totals are 2..11 ms; p50 of 10 sorted samples (index 4) = 6, max 11.
	if sum.Total.N != 10 || sum.Total.P50 != 6 || sum.Total.Max != 11 {
		t.Errorf("Total = %+v, want N=10 P50=6 Max=11", sum.Total)
	}
}

func TestSummarizeClampsClockSkew(t *testing.T) {
	dumps := []Dump{{Node: "n", Events: []Event{
		{TxID: "x", Stage: StageSubmit, WallNS: ms(5)},
		{TxID: "x", Stage: StageCommit, WallNS: ms(3)}, // skewed peer clock
	}}}
	sum := Summarize(Merge(dumps))
	if sum.Total.N != 1 || sum.Total.Max != 0 {
		t.Fatalf("Total = %+v, want one clamped-to-0 sample", sum.Total)
	}
}

func TestCoverage(t *testing.T) {
	tls := Merge([]Dump{{Node: "n", Events: []Event{
		{TxID: "a", Stage: StageSubmit, WallNS: 1},
		{TxID: "a", Stage: StageCommit, WallNS: 2},
		{TxID: "b", Stage: StageSubmit, WallNS: 1}, // never committed in the window
	}}})
	if got := Coverage(tls, []string{"a", "b"}, StageSubmit, StageCommit); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if got := Coverage(tls, []string{"a", "c"}, StageSubmit); got != 0.5 {
		t.Errorf("coverage with unknown id = %v, want 0.5", got)
	}
	if got := Coverage(tls, nil, StageSubmit); got != 1 {
		t.Errorf("vacuous coverage = %v, want 1", got)
	}
}

func TestQuantilesExactAgainstOracle(t *testing.T) {
	var samples []float64
	for i := 1; i <= 1000; i++ {
		samples = append(samples, float64(i))
	}
	q := quantiles(samples)
	for _, tc := range []struct{ got, want float64 }{
		{q.P50, 500}, {q.P90, 900}, {q.P99, 990}, {q.P999, 999}, {q.Max, 1000},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("quantile = %v, want %v", tc.got, tc.want)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	sum := Summarize(Merge([]Dump{{Node: "n", Events: []Event{
		{TxID: "a", Stage: StageSubmit, WallNS: ms(1)},
		{TxID: "a", Stage: StageCommit, WallNS: ms(4)},
	}}}))
	out := sum.Format()
	for _, want := range []string{"stage transition", "submit", "commit", "total submit→commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted summary missing %q:\n%s", want, out)
		}
	}
}

// TestPathNamesADeferral: the order stamp of a deferred transaction carries
// the scheduler's arrival code as its detail, and the merged timeline answers
// "why did this abort, how did this commit" in one line.
func TestPathNamesADeferral(t *testing.T) {
	tr := New("ord0", "orderer", 1<<6)
	tr.Record("d", StageSubmit, 0)
	tr.Record("d", StageOrder, uint64(protocol.AbortCycle)) // what orderer.Service records for a deferral
	tr.Record("d", StageSeal, 7)
	tr.Record("a", StageOrder, uint64(protocol.Valid))
	tr.Record("a", StageSeal, 7)
	peer := New("peer0", "peer", 1<<6)
	for _, id := range []string{"d", "a"} {
		peer.Record(id, StageDeliver, 7)
		peer.Record(id, StageValidate, 7)
		peer.Record(id, StageCommit, 7)
	}
	peer.Record("d", StageRescue, 7)
	got := map[string]string{}
	for _, tl := range Merge([]Dump{tr.Dump(), peer.Dump()}) {
		got[tl.TxID] = tl.Path()
	}
	if want := "submit → defer(cycle) → seal → deliver → validate → commit → rescue"; got["d"] != want {
		t.Errorf("deferred path %q, want %q", got["d"], want)
	}
	if want := "order → seal → deliver → validate → commit"; got["a"] != want {
		t.Errorf("admitted path %q, want %q", got["a"], want)
	}
}

// TestCutBreakdown: the orderer records a cut's stages back to back, keyed by
// block; Cuts reads them back per block, FormatCuts prints the breakdown with
// the cut's remainder as "other", and Merge keeps them out of the
// transaction timelines.
func TestCutBreakdown(t *testing.T) {
	tr := New("ord0", "orderer", 1<<6)
	tr.Record("a", StageOrder, 0)
	for _, block := range []uint64{7, 8} {
		start := tr.Now()
		mark := start
		for _, s := range []Stage{StageFormation, StagePrecheck, StageReexec, StageFeedback} {
			mark = tr.RecordSpan(block, s, mark)
		}
		tr.RecordSpan(block, StageCut, start)
	}
	tr.Record("a", StageSeal, 8)
	d := tr.Dump()
	rows := Cuts(d)
	if len(rows) != 2 || rows[0].Block != 7 || rows[1].Block != 8 {
		t.Fatalf("cut rows %+v, want blocks 7 and 8", rows)
	}
	for _, r := range rows {
		var sum int64
		for i := 0; i < NumCutStages-1; i++ {
			sum += r.NS[i]
		}
		if cut := r.NS[StageCut-StageFormation]; cut < sum {
			t.Fatalf("block %d: cut %d ns, shorter than its stages' %d", r.Block, cut, sum)
		}
	}
	out := FormatCuts(rows, 1)
	for _, want := range []string{"2 cuts", "formation", "feedback", "other", "p99", "block 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("cut breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "block 7") {
		t.Errorf("cut breakdown lists more than the last block:\n%s", out)
	}
	tls := Merge([]Dump{d})
	if len(tls) != 1 || tls[0].TxID != "a" || tls[0].Path() != "order → seal" {
		t.Fatalf("merged timelines %+v, want the one transaction", tls)
	}
}

// TestCheckpointSpans: a peer records each store checkpoint as a block-keyed
// span, and its genesis as one at block 0; Spans reads each stage's back in
// block order, FormatSpans prints the count and each duration, and neither
// Cuts nor Merge takes them for a cut or a transaction.
func TestCheckpointSpans(t *testing.T) {
	tr := New("peer0", "peer", 1<<6)
	tr.RecordSpan(0, StageGenesis, tr.Now()-3e6)
	tr.Record("a", StageCommit, 9)
	for _, block := range []uint64{12, 9} {
		tr.RecordSpan(block, StageCheckpoint, tr.Now()-int64(block)*1e6)
	}
	d := tr.Dump()
	spans := Spans(d, StageCheckpoint)
	if len(spans) != 2 || spans[0].Block != 9 || spans[1].Block != 12 || spans[0].NS < 9e6 {
		t.Fatalf("checkpoint spans %+v, want blocks 9 and 12, each at least its number in ms", spans)
	}
	if out := FormatSpans("checkpoints", spans); !strings.HasPrefix(out, "2 checkpoints, block 9 ") || !strings.Contains(out, "block 12") {
		t.Errorf("checkpoint line %q", out)
	}
	genesis := Spans(d, StageGenesis)
	if len(genesis) != 1 || genesis[0].Block != 0 || genesis[0].NS < 3e6 {
		t.Fatalf("genesis spans %+v, want one at block 0 of at least 3 ms", genesis)
	}
	if out := FormatSpans("genesis", genesis); !strings.HasPrefix(out, "1 genesis, block 0 ") {
		t.Errorf("genesis line %q", out)
	}
	if rows := Cuts(d); len(rows) != 0 {
		t.Errorf("checkpoints read as cuts: %+v", rows)
	}
	if tls := Merge([]Dump{d}); len(tls) != 1 || tls[0].TxID != "a" {
		t.Errorf("merged timelines %+v, want the one transaction", tls)
	}
}

// TestMergeJoinsPeerBlockStagesBySeal: a peer records deliver, validate and
// commit once per block, with no TxID; Merge hands each transaction the
// latest of those stamps across peers for the block its seal names. A
// transaction no orderer sealed gets none, and a TxID that reads as a block
// number is joined by its seal, never by its name.
func TestMergeJoinsPeerBlockStagesBySeal(t *testing.T) {
	dumps := []Dump{
		{Node: "ord0", Role: "orderer", Events: []Event{
			{TxID: "a", Stage: StageSubmit, WallNS: ms(1)},
			{TxID: "a", Stage: StageSeal, Block: 1, WallNS: ms(3)},
			{TxID: "12", Stage: StageSeal, Block: 1, WallNS: ms(3)},
			{TxID: "b", Stage: StageSeal, Block: 2, WallNS: ms(8)},
			{TxID: "unsealed", Stage: StageSubmit, WallNS: ms(9)},
		}},
		{Node: "peer0", Role: "peer", Events: []Event{
			{Stage: StageDeliver, Block: 1, WallNS: ms(4)},
			{Stage: StageValidate, Block: 1, WallNS: ms(5)},
			{Stage: StageCommit, Block: 1, WallNS: ms(6)},
			{TxID: "a", Stage: StageRescue, Block: 1, WallNS: ms(6)},
			{Stage: StageDeliver, Block: 2, WallNS: ms(9)},
			{Stage: StageValidate, Block: 2, WallNS: ms(10)},
			{Stage: StageCommit, Block: 2, WallNS: ms(11)},
			{Stage: StageDeliver, Block: 12, WallNS: ms(50)},
			{Stage: StageCommit, Block: 12, WallNS: ms(51)},
		}},
		{Node: "peer1", Role: "peer", Events: []Event{
			{Stage: StageDeliver, Block: 1, WallNS: ms(4.5)},
			{Stage: StageValidate, Block: 1, WallNS: ms(4.8)},
			{Stage: StageCommit, Block: 1, WallNS: ms(7)},
		}},
	}
	got := map[string]Timeline{}
	for _, tl := range Merge(dumps) {
		got[tl.TxID] = tl
	}
	if len(got) != 4 {
		t.Fatalf("merged %d timelines %v, want a, 12, b and unsealed", len(got), got)
	}
	want := map[string][4]int64{ // block, deliver, validate, commit
		"a":        {1, ms(4.5), ms(5), ms(7)},
		"12":       {1, ms(4.5), ms(5), ms(7)},
		"b":        {2, ms(9), ms(10), ms(11)},
		"unsealed": {0, 0, 0, 0},
	}
	for id, w := range want {
		tl := got[id]
		if g := [4]int64{int64(tl.Block), tl.Stamp[StageDeliver], tl.Stamp[StageValidate], tl.Stamp[StageCommit]}; g != w {
			t.Errorf("%s: block, deliver, validate, commit = %v, want %v", id, g, w)
		}
	}
	if a := got["a"]; a.Stamp[StageRescue] != ms(6) || a.Path() != "submit → seal → deliver → validate → commit → rescue" {
		t.Errorf("a: rescue %d, path %q", a.Stamp[StageRescue], a.Path())
	}
	if b := got["b"]; b.Has(StageRescue) {
		t.Errorf("b carries a rescue stamp %d", b.Stamp[StageRescue])
	}
}
