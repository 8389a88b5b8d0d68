// Package metrics provides the small measurement toolkit the experiment
// harness reports with: latency histograms with percentiles, throughput
// accounting, abort-taxonomy tallies, and the concurrency-safe counters and
// gauges the commit pipeline instruments its stages with.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fabricsharp/internal/protocol"
)

// Stopwatch measures elapsed wall time for stage instrumentation. It lives
// here — outside the deterministic scope — so consensus-critical packages
// can time their stages without touching the wall clock directly: elapsed
// time feeds operator-facing stats only, never sealed output, and sharpvet's
// wallclock analyzer enforces that the raw clock stays behind this seam.
type Stopwatch struct{ t0 time.Time }

// StartWatch starts a stopwatch at the current instant.
func StartWatch() Stopwatch { return Stopwatch{t0: time.Now()} }

// ElapsedNS returns the nanoseconds elapsed since StartWatch.
func (s Stopwatch) ElapsedNS() int64 { return time.Since(s.t0).Nanoseconds() }

// Counter is a monotonically increasing, concurrency-safe event counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc bumps the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add bumps the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a concurrency-safe instantaneous level (queue depths, in-flight
// work) that also tracks its high-water mark. The zero value is ready to use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by delta and returns the new level.
func (g *Gauge) Add(delta int64) int64 {
	nv := g.v.Add(delta)
	for {
		m := g.max.Load()
		if nv <= m || g.max.CompareAndSwap(m, nv) {
			return nv
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Set pins the gauge to an absolute level (still tracking the high-water
// mark) — for externally-computed levels like a Raft term or replication
// lag, where deltas are not the natural unit.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Max returns the highest level ever observed.
func (g *Gauge) Max() int64 { return g.max.Load() }

// ConsensusMetrics instruments the fault-tolerance surface of a clustered
// ordering node: how often leadership moves, how far replication trails the
// log, and how often clients are redirected. All fields are concurrency-safe
// and the zero value is ready to use.
type ConsensusMetrics struct {
	// Elections counts elections this replica started (candidate
	// transitions, including re-elections after split votes).
	Elections Counter
	// Failovers counts observed leader-identity changes — a stable cluster
	// holds this at one (the initial election).
	Failovers Counter
	// Term tracks the replica's current Raft term.
	Term Gauge
	// ReplicationLag tracks, on the leader, how many log entries trail the
	// commit index (lastIndex − commitIndex); its Max is the worst backlog.
	ReplicationLag Gauge
	// SubmitRedirects counts client submissions answered with a NotLeader
	// redirect (client side: redirects followed).
	SubmitRedirects Counter
}

// Histogram collects float64 samples (seconds, milliseconds — caller's
// choice) and answers exact summary statistics. It keeps every sample and
// is not safe for concurrent use: it serves the simulator's offline paper
// figures, where exactness matters and runs are bounded. Always-on,
// concurrent recording goes to HDRHistogram. The zero value is ready to
// use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the arithmetic mean, 0 if empty.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100), 0 if empty.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	idx := int(p/100*float64(len(h.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Quantiles answers several quantiles (0 < q <= 1) with one sort: the
// samples are ordered once and every q indexes the sorted slice directly.
// Each result matches Percentile(100*q) exactly.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(h.samples) == 0 {
		return out
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	for i, q := range qs {
		idx := int(q*float64(len(h.samples))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.samples) {
			idx = len(h.samples) - 1
		}
		out[i] = h.samples[idx]
	}
	return out
}

// P50 is the median.
func (h *Histogram) P50() float64 { return h.Percentile(50) }

// P95 is the 95th percentile.
func (h *Histogram) P95() float64 { return h.Percentile(95) }

// P99 is the 99th percentile.
func (h *Histogram) P99() float64 { return h.Percentile(99) }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// AbortTally counts outcomes by validation code.
type AbortTally map[protocol.ValidationCode]uint64

// Inc bumps a code.
func (t AbortTally) Inc(c protocol.ValidationCode) { t[c]++ }

// Total sums every non-committed count (Valid and Rescued are not aborts).
func (t AbortTally) Total() uint64 {
	var sum uint64
	for c, n := range t {
		if !c.Committed() {
			sum += n
		}
	}
	return sum
}

// String renders the tally deterministically, busiest codes first.
func (t AbortTally) String() string {
	type kv struct {
		c protocol.ValidationCode
		n uint64
	}
	var items []kv
	for c, n := range t {
		if n > 0 {
			items = append(items, kv{c, n})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].c < items[j].c
	})
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s=%d", it.c, it.n)
	}
	return strings.Join(parts, " ")
}
