package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/trace"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseStats summarises the measured window of one phase: the part of it
// after the warm-up (warmUp).
type phaseStats struct {
	Name string `json:"name"`
	Rate int    `json:"rate_tps"` // 0 for the closed loop
	// Clients is how many clients the closed loop ran; 0 for an open loop,
	// which draws on the whole pool.
	Clients int `json:"closed_loop_clients,omitempty"`
	// Offered counts submissions due in the window; the others partition the
	// verdicts of those.
	Offered   int `json:"offered"`
	Committed int `json:"committed"`
	Aborted   int `json:"aborted"`
	Failed    int `json:"failed"`
	// Latency from the scheduled instant to the verdict of the committed
	// transactions, Samples of them; TailPct says which percentile TailMS is.
	// Aborts are left out: a pre-ordering abort returns at once, and mixing
	// the two populations would put the median on the gap between them.
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
	TailMS  float64 `json:"tail_ms"`
	TailPct int     `json:"tail_percentile"`
	// Verdicts and commits returned inside the window, per second of it.
	VerdictTPS float64 `json:"verdict_tps"`
	CommitTPS  float64 `json:"commit_tps"`
	// QueueWaitP99MS is scheduled -> dequeued; LateP99MS is scheduled ->
	// handed over by the pacer (how late the generator ran).
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	LateP99MS      float64 `json:"late_p99_ms"`
	// CPU seconds spent inside the window.
	OrdererCPU float64 `json:"orderer_cpu_s"`
	PeerCPU    float64 `json:"peer_cpu_s"`
	DriverCPU  float64 `json:"driver_cpu_s"`
	MeetsSLO   bool    `json:"meets_slo"`

	codes        map[protocol.ValidationCode]int
	doneInWindow int // verdicts returned inside the window
	commitsDone  int // of those, committed
}

func (ph phaseStats) nodeCPUPerKtx() float64 {
	return perKtx(ph.OrdererCPU+ph.PeerCPU, ph.commitsDone)
}

func perKtx(cpu float64, committed int) float64 {
	if committed == 0 {
		return 0
	}
	return cpu / float64(committed) * 1000
}

// cpuWindow snapshots process accounting at the warm-up boundary and at the
// end of the window, and samples the nodes' resident set every second in
// between.
type cpuWindow struct {
	c                 *cluster
	warm, dur         time.Duration
	ord, peer, driver [2]float64
	rss               []float64 // MiB, summed over the node processes
}

func (cw *cpuWindow) snap(i int) {
	cw.ord[i] = cw.c.roleUsage("orderer").CPU
	cw.peer[i] = cw.c.roleUsage("peer").CPU
	if u, err := readUsage(os.Getpid()); err == nil {
		cw.driver[i] = u.CPU
	}
}

func (cw *cpuWindow) run(t0 time.Time) {
	time.Sleep(time.Until(t0.Add(cw.warm)))
	cw.snap(0)
	for at := cw.warm + time.Second; at < cw.dur; at += time.Second {
		time.Sleep(time.Until(t0.Add(at)))
		cw.rss = append(cw.rss, cw.c.roleUsage("").RSSMB)
	}
	time.Sleep(time.Until(t0.Add(cw.dur)))
	cw.snap(1)
	cw.rss = append(cw.rss, cw.c.roleUsage("").RSSMB)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// summarise reduces a phase's samples to its window statistics. rate 0 marks
// the closed loop, which has no schedule and hence no SLO.
func summarise(name string, rate int, samples []sample, warm, dur time.Duration, cw *cpuWindow) phaseStats {
	ph := phaseStats{Name: name, Rate: rate, codes: map[protocol.ValidationCode]int{}}
	var lat, wait, late []float64
	for _, s := range samples {
		if !s.Failed && s.Done >= int64(warm) && s.Done <= int64(dur) {
			ph.doneInWindow++
			if s.Code.Committed() {
				ph.commitsDone++
			}
		}
		if s.Sched < int64(warm) {
			continue
		}
		ph.Offered++
		wait = append(wait, ms(s.Start-s.Sched))
		late = append(late, ms(s.Enq-s.Sched))
		switch {
		case s.Failed:
			ph.Failed++
			continue
		case s.Code.Committed():
			ph.Committed++
		default:
			ph.Aborted++
		}
		ph.codes[s.Code]++
		if s.Code.Committed() {
			lat = append(lat, ms(s.Done-s.Sched))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(wait)
	sort.Float64s(late)
	ph.Samples = len(lat)
	ph.P50MS = percentile(lat, 50)
	ph.TailPct = tailPercent(len(lat))
	ph.TailMS = percentile(lat, ph.TailPct)
	ph.QueueWaitP50MS, ph.QueueWaitP99MS = percentile(wait, 50), percentile(wait, 99)
	ph.LateP99MS = percentile(late, 99)
	window := (dur - warm).Seconds()
	ph.VerdictTPS = float64(ph.doneInWindow) / window
	ph.CommitTPS = float64(ph.commitsDone) / window
	if cw != nil {
		ph.OrdererCPU = cw.ord[1] - cw.ord[0]
		ph.PeerCPU = cw.peer[1] - cw.peer[0]
		ph.DriverCPU = cw.driver[1] - cw.driver[0]
	}
	ph.MeetsSLO = rate > 0 && ph.Failed == 0 && ph.TailMS <= sloP99MS &&
		ph.VerdictTPS >= sloAchievedShare*float64(rate)
	return ph
}

// runResult is everything one invocation measured.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Correct is the gate: replicas bit-identical, no unknown verdict code,
	// acked commits still on the ledger, trace coverage on traced runs.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// GeneratorBound marks a run whose pacer ran late at r2: its latency
	// figures measure the harness (or a stall of the whole machine) as much
	// as the cluster. It is a warning about the measurement, not a verdict
	// on the system, so it does not clear Correct.
	GeneratorBound bool              `json:"generator_bound"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	Metrics        map[string]metric `json:"metrics"`
	// Extra holds figures that exist on this workload only (the leader-kill
	// phase); they are printed but are not part of the fixed metric lists.
	Extra  map[string]metric `json:"extra,omitempty"`
	Phases []phaseStats      `json:"phases"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner carries one booted cluster through its phases.
type runner struct {
	c     *cluster
	p     *pool
	res   *runResult
	acked uint64 // commits acked to clients since boot, warm-up included
}

// account folds a phase's samples into the run-wide tallies and checks that
// every verdict code is a known one.
func (r *runner) account(samples []sample) {
	for _, s := range samples {
		r.res.Attempted++
		switch {
		case s.Failed:
			r.res.Failed++
		case s.Code.Committed():
			r.acked++
		case strings.HasPrefix(s.Code.String(), "code("):
			r.res.problem("unknown verdict code %d", uint8(s.Code))
		}
	}
}

// drain waits for the cluster to go idle with every replica at the same tip.
func (r *runner) drain() {
	if err := r.c.awaitAgreement(r.acked, 30*time.Second); err != nil {
		r.res.problem("%v", err)
	}
}

// warmUp is the discarded head of a phase: two seconds, or a fifth of a
// phase shorter than ten.
func warmUp(dur time.Duration) time.Duration { return min(2*time.Second, dur/5) }

// open runs one open-loop phase and drains the cluster after it. The
// returned cpuWindow also holds the phase's resident-set samples.
func (r *runner) open(name string, rate int, dur time.Duration, traced bool) (phaseStats, []sample, time.Time, *cpuWindow) {
	warm := warmUp(dur)
	cw := &cpuWindow{c: r.c, warm: warm, dur: dur}
	var t0 time.Time
	samples := r.p.openLoop(rate, dur, traced, func(start time.Time) { t0 = start; cw.run(start) })
	r.account(samples)
	r.drain()
	ph := summarise(name, rate, samples, warm, dur, cw)
	r.res.Phases = append(r.res.Phases, ph)
	return ph, samples, t0, cw
}

// setupOnce boots a cluster in a fresh directory and dials the client pool,
// returning how long that took from the first spawn.
func setupOnce(nodeBin, dir string, spec workloadSpec, seed int64) (*cluster, *pool, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	c, err := bootCluster(nodeBin, dir, spec)
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := dialPool(c, seed, poolClients)
	if err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	return c, p, time.Since(t0).Seconds(), nil
}

// setupRepeats is how many times an end-to-end run sets the cluster up; it
// reports the median and measures on the last one.
const setupRepeats = 5

// runWorkload is one invocation: set up, run the phases of the end-to-end or
// of the traced plan, check correctness, tear down.
func runWorkload(nodeBin, workDir string, spec workloadSpec, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{
		Workload: spec.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{},
	}
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var (
		c      *cluster
		p      *pool
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if c != nil {
			p.close()
			c.stop()
		}
		var took float64
		var err error
		c, p, took, err = setupOnce(nodeBin, fmt.Sprintf("%s/setup%d", workDir, i), spec, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer c.stop()
	defer p.close()
	r := &runner{c: c, p: p, res: res}
	total := time.Duration(seconds) * time.Second
	if traced {
		r.tracedPlan(total)
	} else {
		r.endToEndPlan(total, median(setups))
	}
	// The gate: after the last drain every replica must be bit-identical and
	// hold every commit a client was told about.
	r.drain()
	return res, nil
}

func (r *runner) set(name string, v float64) {
	for _, list := range [][]metricDef{endToEndMetrics, clusterLayerMetrics} {
		for _, d := range list {
			if d.Name == name {
				r.res.Metrics[name] = metric{v, d.Unit}
				return
			}
		}
	}
	panic("metric " + name + " is not declared in spec.go")
}

// endToEndPlan: r2 open loop for the whole run.
func (r *runner) endToEndPlan(total time.Duration, setupS float64) {
	r2, _, _, cw := r.open("r2", r.c.spec.Rates[1], total, false)
	r.res.GeneratorBound = r2.LateP99MS > generatorBoundLateMS
	r.set("setup_s", setupS)
	r.set("commit_p50_ms", r2.P50MS)
	r.set("commit_p99_ms", r2.TailMS)
	r.set("commit_share", float64(r2.Committed)/float64(r2.Offered))
	r.set("cpu_s_per_ktx", r2.nodeCPUPerKtx())
	r.set("rss_mb", median(cw.rss))
}

// tracedPlan: the three rungs, r2 again with spans kept and the nodes' stage
// rings drained, the closed loop, and under Raft a leader kill.
func (r *runner) tracedPlan(total time.Duration) {
	spec := r.c.spec
	phases := 5
	if spec.Raft {
		phases = 6
	}
	dur := total / time.Duration(phases)
	term0 := r.c.maxTerm()

	var rungs [3]phaseStats
	for i, rate := range spec.Rates {
		rungs[i], _, _, _ = r.open(fmt.Sprintf("r%d", i+1), rate, dur, false)
	}
	best, offered, failed := 0, 0, 0
	for _, ph := range rungs {
		if ph.MeetsSLO && ph.Rate > best {
			best = ph.Rate
		}
		offered += ph.Offered
		failed += ph.Failed
	}
	r.set("max_rate_in_slo_tps", float64(best))
	r.set("fail_share", float64(failed)/float64(offered))

	tr, samples, t0, _ := r.open("r2-traced", spec.Rates[1], dur, true)
	r.res.GeneratorBound = tr.LateP99MS > generatorBoundLateMS
	r.set("driver.queue_wait_p99_ms", tr.QueueWaitP99MS)
	r.set("driver.late_p99_ms", tr.LateP99MS)
	r.set("driver.cpu_s_per_ktx", perKtx(tr.DriverCPU, tr.commitsDone))
	r.set("driver.tracing_overhead_pct", 100*(tr.P50MS-rungs[1].P50MS)/rungs[1].P50MS)
	r.set("node.orderer_cpu_s_per_ktx", perKtx(tr.OrdererCPU, tr.commitsDone))
	r.set("node.peer_cpu_s_per_ktx", perKtx(tr.PeerCPU, tr.commitsDone))
	r.set("node.orderer_rss_mb", r.c.roleUsage("orderer").RSSMB)
	r.set("node.peer_rss_mb", r.c.roleUsage("peer").RSSMB)
	share := func(n int) float64 { return float64(n) / float64(tr.Offered) }
	early := 0
	for code, n := range tr.codes {
		if code.IsEarlyAbort() {
			early += n
		}
	}
	r.set("sched.preorder_abort_share", share(early))
	r.set("validation.mvcc_abort_share", share(tr.codes[protocol.MVCCConflict]))
	r.set("reexec.rescued_share", share(tr.codes[protocol.Rescued]))
	r.set("kvstore.disk_bytes_per_tx", float64(r.c.diskBytes())/float64(max(r.acked, 1)))
	r.stageTable(tr, samples, t0, warmUp(dur))

	satSamples := r.p.closedLoop(spec.SatClients, dur, nil)
	r.account(satSamples)
	r.drain()
	sat := summarise("sat", 0, satSamples, warmUp(dur), dur, nil)
	sat.Clients = spec.SatClients
	r.res.Phases = append(r.res.Phases, sat)
	r.set("sat_tps", sat.VerdictTPS)
	r.set("sat_goodput_tps", sat.CommitTPS)

	if spec.Raft {
		r.leaderKill(spec.Rates[1], dur)
	}
	r.set("transport.redirects", float64(r.p.redirects()))
	r.set("consensus.elections", float64(r.c.maxTerm()-term0))
}

// stageTable joins the driver's spans of the traced phase with the stage
// stamps every node recorded, by transaction ID on the one machine clock.
func (r *runner) stageTable(tr phaseStats, samples []sample, t0 time.Time, warm time.Duration) {
	want := []trace.Stage{trace.StageSubmit, trace.StageOrder, trace.StageSeal,
		trace.StageDeliver, trace.StageValidate, trace.StageCommit}
	if r.c.spec.Raft {
		want = append(want, trace.StageRaftCommit)
	}
	var committed []string
	inWindow := map[string]sample{}
	for _, s := range samples {
		if s.Failed || s.Sched < int64(warm) || s.TxID == "" {
			continue
		}
		inWindow[s.TxID] = s
		if s.Code.Committed() {
			committed = append(committed, s.TxID)
		}
	}
	var live []string
	for _, p := range r.c.nodes() {
		if p.alive() {
			live = append(live, p.addr)
		}
	}
	// Commit-stage stamps trail the client's verdict; the drain before this
	// call already waited for the peers, so one fetch normally suffices.
	var tls []trace.Timeline
	var dumps []trace.Dump
	coverage := 0.0
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var err error
		tls, dumps, err = node.FetchTimelines(live, 10*time.Second)
		if err != nil {
			r.res.problem("drain stage rings: %v", err)
			return
		}
		coverage = 100 * trace.Coverage(tls, committed, want...)
		if coverage >= 99.5 || time.Now().After(deadline) {
			break
		}
	}
	r.set("trace.coverage_pct", coverage)
	if coverage < 99 {
		r.res.problem("trace coverage %.2f%% of %d committed transactions, need 99%%", coverage, len(committed))
	}

	wall0 := t0.UnixNano()
	gaps := map[string][]float64{}
	gap := func(name string, from, to int64) {
		if from == 0 || to == 0 {
			return
		}
		gaps[name] = append(gaps[name], max(ms(to-from), 0))
	}
	for i := range tls {
		tl := &tls[i]
		s, ok := inWindow[tl.TxID]
		if !ok {
			continue
		}
		st := tl.Stamp
		gap("endorse_to_submit", wall0+s.Start, st[trace.StageSubmit])
		if !s.Code.Committed() {
			continue
		}
		gap("submit_to_order", st[trace.StageSubmit], st[trace.StageOrder])
		gap("order_to_seal", st[trace.StageOrder], st[trace.StageSeal])
		gap("seal_to_result", st[trace.StageSeal], wall0+s.Done)
		gap("seal_to_deliver", st[trace.StageSeal], st[trace.StageDeliver])
		gap("deliver_to_validate", st[trace.StageDeliver], st[trace.StageValidate])
		gap("validate_to_commit", st[trace.StageValidate], st[trace.StageCommit])
	}
	for _, g := range gaps {
		sort.Float64s(g)
	}
	q := func(name string, pct int) float64 { return percentile(gaps[name], pct) }
	r.set("node.endorse_to_submit_p50_ms", q("endorse_to_submit", 50))
	r.set("node.seal_to_result_p50_ms", q("seal_to_result", 50))
	r.set("node.seal_to_result_p99_ms", q("seal_to_result", 99))
	r.set("transport.seal_to_deliver_p50_ms", q("seal_to_deliver", 50))
	r.set("transport.seal_to_deliver_p99_ms", q("seal_to_deliver", 99))
	r.set("consensus.submit_to_order_p50_ms", q("submit_to_order", 50))
	r.set("consensus.submit_to_order_p99_ms", q("submit_to_order", 99))
	r.set("sched.order_to_seal_p50_ms", q("order_to_seal", 50))
	r.set("sched.order_to_seal_p99_ms", q("order_to_seal", 99))
	r.set("commit.deliver_to_validate_p50_ms", q("deliver_to_validate", 50))
	r.set("commit.validate_to_commit_p50_ms", q("validate_to_commit", 50))
	r.set("commit.validate_to_commit_p99_ms", q("validate_to_commit", 99))
	// What the client waits for ends at the verdict, which the orderer
	// resolves at seal; the peer stages run beside it, not before it.
	explained := tr.QueueWaitP50MS + q("endorse_to_submit", 50) + q("submit_to_order", 50) +
		q("order_to_seal", 50) + q("seal_to_result", 50)
	r.set("trace.unexplained_ms", tr.P50MS-explained)

	// Transactions per sealed block, from the first orderer ring that saw
	// the window's seals.
	for _, d := range dumps {
		blocks := map[uint64]int{}
		n := 0
		for _, ev := range d.Events {
			if _, ok := inWindow[ev.TxID]; ok && ev.Stage == trace.StageSeal {
				blocks[ev.Block]++
				n++
			}
		}
		if n > 0 {
			r.set("sched.txs_per_block", float64(n)/float64(len(blocks)))
			return
		}
	}
	r.set("sched.txs_per_block", 0)
}

// leaderKill offers r2 on schedule, SIGKILLs the Raft leader a quarter of
// the way in, and reports the longest silence between consecutive verdicts.
// Every commit acked before the kill must still be on the survivors' ledger,
// which the drain that follows asserts.
func (r *runner) leaderKill(rate int, dur time.Duration) {
	leader := r.c.leader()
	if leader == nil {
		r.res.problem("leader kill: no leader known")
		return
	}
	samples := r.p.openLoop(rate, dur, false, func(t0 time.Time) {
		time.Sleep(time.Until(t0.Add(dur / 4)))
		leader.stop(true)
	})
	r.account(samples)
	r.drain()
	ph := summarise("leader-kill", rate, samples, 0, dur, nil)
	r.res.Phases = append(r.res.Phases, ph)
	var done []int64
	for _, s := range samples {
		if !s.Failed {
			done = append(done, s.Done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	longest := int64(0)
	for i := 1; i < len(done); i++ {
		longest = max(longest, done[i]-done[i-1])
	}
	r.res.Extra["consensus.failover_gap_ms"] = metric{ms(longest), "ms"}
}
