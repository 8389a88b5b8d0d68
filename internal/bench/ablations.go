package bench

import (
	"fmt"

	"fabricsharp/internal/core"
	"fabricsharp/internal/network"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/workload"
)

// Ablations exercise the design choices Section 4 calls out: the max_span
// pruning horizon (staleness aborts vs graph size), the reachability bloom
// sizing (false positives become preventive aborts), and the filter relay
// period (false-positive control vs rebuild cost).
func Ablations(o Options) []*Table {
	return []*Table{
		AblationMaxSpan(o),
		AblationBloomBits(),
		AblationRelayPeriod(),
	}
}

// AblationMaxSpan sweeps the pruning horizon on the full pipeline: small
// horizons abort laggard transactions as stale and keep the graph tiny;
// large horizons accept more but track more.
func AblationMaxSpan(o Options) *Table {
	t := &Table{
		Title:   "Ablation: max_span (Section 4.6) on Fabric#",
		Columns: []string{"max_span", "effective tps", "stale aborts %", "cycle aborts %", "max graph size"},
		Comment: "long client delays make snapshots lag; small horizons turn lag into stale aborts",
	}
	for _, span := range []uint64{2, 4, 6, 10, 20, 40} {
		rng := o.Rng(o.Seed)
		res := run(network.Config{
			System:      sched.SystemSharp,
			Workload:    mustGen(workload.NewModifiedSmallbank(rng, 0, Params.Defaults.ReadHot, Params.Defaults.WriteHot)),
			Seed:        o.Seed,
			Duration:    o.duration(),
			RequestRate: Params.Defaults.RequestRate,
			BlockSize:   Params.Defaults.BlockSize,
			ClientDelay: defaultClientDelay() * 3, // stress the horizon
			MaxSpan:     span,
		})
		pct := func(n uint64) string {
			return fmt.Sprintf("%.2f", 100*float64(n)/float64(res.Submitted))
		}
		graph := 0
		if res.SharpStats != nil {
			graph = res.SharpStats.MaxGraphSize
		}
		t.AddRow(span, res.EffectiveTPS,
			pct(res.EarlyAborts[protocol.AbortStaleSnapshot]),
			pct(res.EarlyAborts[protocol.AbortCycle]),
			graph)
	}
	return t
}

// ablationStream drives a manager with a fixed contended stream and reports
// accept/abort counts.
func ablationStream(opts core.Options) (accepted, cycleAborts uint64) {
	m := core.NewManager(opts)
	height := uint64(0)
	for i := 0; i < 4000; i++ {
		r1 := fmt.Sprintf("k%d", (i*7)%40)
		r2 := fmt.Sprintf("k%d", (i*11)%40)
		w := fmt.Sprintf("k%d", (i*3)%40)
		snap := height
		if snap > 0 && i%3 == 0 {
			snap--
		}
		code, err := m.OnArrival(core.TxID(fmt.Sprintf("t%d", i)), snap, []string{r1, r2}, []string{w})
		if err != nil {
			panic(err)
		}
		switch code {
		case protocol.Valid:
			accepted++
		case protocol.AbortCycle:
			cycleAborts++
		}
		if (i+1)%100 == 0 {
			if ids, block := m.OnBlockFormation(); len(ids) > 0 {
				height = block
			}
		}
	}
	return accepted, cycleAborts
}

// AblationBloomBits shows undersized reachability filters converting false
// positives into preventive aborts: safety holds, throughput pays.
func AblationBloomBits() *Table {
	t := &Table{
		Title:   "Ablation: reachability filter size (Section 4.4)",
		Columns: []string{"bloom bits", "accepted", "cycle aborts", "abort %"},
		Comment: "identical contended stream of 4000 txns; extra aborts at small sizes are bloom false positives",
	}
	for _, bits := range []uint64{128, 256, 1024, 4096, 16384, 65536} {
		accepted, cycles := ablationStream(core.Options{BloomBits: bits, BloomHashes: 4})
		t.AddRow(bits, accepted, cycles, fmt.Sprintf("%.2f", 100*float64(cycles)/4000))
	}
	return t
}

// AblationRelayPeriod shows the filter relay (rebuild) period's effect: rare
// relays let fill ratios — and false-positive aborts — creep up.
func AblationRelayPeriod() *Table {
	t := &Table{
		Title:   "Ablation: filter relay period (Section 4.4)",
		Columns: []string{"relay every N blocks", "accepted", "cycle aborts", "abort %"},
		Comment: "small filters (1024 bits) make the relay's false-positive control visible",
	}
	for _, relay := range []uint64{1, 2, 5, 10, 20, 50} {
		accepted, cycles := ablationStream(core.Options{BloomBits: 1024, BloomHashes: 4, RelayBlocks: relay})
		t.AddRow(relay, accepted, cycles, fmt.Sprintf("%.2f", 100*float64(cycles)/4000))
	}
	return t
}
