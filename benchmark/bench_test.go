package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"fabricsharp/benchmark/layers"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/workload"
)

// stallOnce is a fake client whose first Submit takes `stall`, every later
// one no time at all.
type stallOnce struct {
	stall time.Duration
	calls int
}

func (s *stallOnce) Submit(string, string, ...string) (protocol.ValidationCode, string, error) {
	s.calls++
	if s.calls == 1 {
		time.Sleep(s.stall)
	}
	return protocol.Valid, "tx", nil
}

type fixedOps struct{}

func (fixedOps) Name() string           { return "fixed" }
func (fixedOps) Next() workload.Op      { return workload.Op{Contract: "c", Function: "f"} }
func (fixedOps) Seed(*statedb.DB) error { return nil }

// A stalled client must charge its delay to the submissions that were due
// while it was stalled: their latency counts from the scheduled instant, not
// from when the client got round to them.
func TestPacerChargesStallToLaterSubmissions(t *testing.T) {
	const stall = 100 * time.Millisecond
	p := &pool{clients: []submitter{&stallOnce{stall: stall}}, gens: []workload.Generator{fixedOps{}}}
	samples := p.openLoop(100, 300*time.Millisecond, false, nil) // due every 10 ms
	if len(samples) != 30 {
		t.Fatalf("offered %d submissions, want 30", len(samples))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Sched < samples[j].Sched })
	for i, s := range samples {
		if want := int64(i) * int64(10*time.Millisecond); s.Sched != want {
			t.Fatalf("submission %d scheduled at %d ns, want %d", i, s.Sched, want)
		}
	}
	// Submission 1 was due at 10 ms and could not start before the stall
	// ended at 100 ms: about 90 ms of latency, all of it queue wait.
	second := samples[1]
	if lat := time.Duration(second.Done - second.Sched); lat < 80*time.Millisecond {
		t.Errorf("submission due during the stall shows %s latency; the stall was not charged to it", lat)
	}
	if wait := time.Duration(second.Start - second.Sched); wait < 80*time.Millisecond {
		t.Errorf("queue wait %s does not include the stall", wait)
	}
	// Once the backlog is worked off latency is back near zero.
	last := samples[len(samples)-1]
	if lat := time.Duration(last.Done - last.Sched); lat > 50*time.Millisecond {
		t.Errorf("last submission still shows %s latency", lat)
	}
	ph := summarise("t", 100, samples, 0, 300*time.Millisecond, nil)
	if ph.Offered != 30 || ph.Committed != 30 || ph.Failed != 0 {
		t.Errorf("summary %+v", ph)
	}
	if ph.QueueWaitP99MS < 80 {
		t.Errorf("queue wait p99 %.1f ms hides the stall", ph.QueueWaitP99MS)
	}
}

// Submissions still queued a grace period after the window closed are
// counted as failed, not silently dropped and not sent late.
func TestOpenLoopCountsNeverSent(t *testing.T) {
	p := &pool{clients: []submitter{&stallOnce{stall: 200*time.Millisecond + drainGrace}}, gens: []workload.Generator{fixedOps{}}}
	samples := p.openLoop(100, 100*time.Millisecond, false, nil)
	failed := 0
	for _, s := range samples {
		if s.Failed {
			failed++
		}
	}
	if len(samples) != 10 || failed != 9 {
		t.Fatalf("%d samples, %d never sent; want 10 and 9", len(samples), failed)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {12800, 99},
	} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	for n := 40; n < 3000; n += 7 {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		v := percentile(sorted, tailPercent(n))
		if beyond := n - 1 - int(v); beyond < minBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, tailPercent(n), beyond)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("median of 1..4 = %v, want the nearest rank 2", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestReadUsageOfThisProcess(t *testing.T) {
	u, err := readUsage(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if u.RSSMB <= 0 {
		t.Errorf("usage %+v", u)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// perLayerMetrics is what a traced run prints, in order.
func perLayerMetrics() []metricDef {
	out := append([]metricDef{}, clusterLayerMetrics...)
	for _, d := range layers.Metrics() {
		out = append(out, metricDef{d.Name, d.Unit})
	}
	return out
}

// What the harness prints and what BENCHMARK.json promises must be the same
// workloads and the same metrics with the same units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, file.Workloads[i].Name, w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, want []metricDef, got func(i int) (string, string, string), n int) {
		if n != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, n, len(want))
		}
		for i, d := range want {
			gotName, gotUnit, better := got(i)
			if gotName != d.Name || gotUnit != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, gotName, gotUnit, d.Name, d.Unit)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: %q [%q] is not a legal name and unit", kind, d.Name, d.Unit)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, better)
			}
			if seen[d.Name] {
				t.Errorf("%s is listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", endToEndMetrics, func(i int) (string, string, string) {
		m := file.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		return m.Name, m.Unit, m.Better
	}, len(file.EndToEnd))
	check("per_layer", perLayerMetrics(), func(i int) (string, string, string) {
		m := file.PerLayer[i]
		return m.Name, m.Unit, m.Better
	}, len(file.PerLayer))
	if !seen["setup_s"] {
		t.Error("setup_s is missing from end_to_end")
	}
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Error("too many metrics for the contract")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

// The full cluster smoke: a short end-to-end run of one solo workload and a
// short traced run, leader kill included, of the Raft one. It boots real
// processes, so it runs only when asked: BENCH_SMOKE=1 go test ./...
func TestClusterSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to boot real clusters")
	}
	dir := t.TempDir()
	nodeBin := filepath.Join(dir, "fabricnode")
	if out, err := exec.Command("go", "build", "-o", nodeBin, "fabricsharp/cmd/fabricnode").CombinedOutput(); err != nil {
		t.Fatalf("build fabricnode: %v\n%s", err, out)
	}
	for _, c := range []struct {
		workload string
		seconds  int
		traced   bool
		want     []metricDef
	}{
		{"solo-hot", 6, false, endToEndMetrics},
		{"raft-durable", 10, true, perLayerMetrics()},
	} {
		spec, _ := findWorkload(c.workload)
		res, err := runOnce(nodeBin, filepath.Join(dir, c.workload), spec, 1, c.seconds, c.traced)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct {
			t.Errorf("%s: correctness gate failed: %v", c.workload, res.Problems)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s: %d metrics printed, want %d", c.workload, len(res.Metrics), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s [%s] missing or in the wrong unit: %+v", c.workload, d.Name, d.Unit, m)
			}
		}
	}
}
