package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHDRIndexRoundTrip(t *testing.T) {
	// Exact range: bucket midpoint IS the value.
	for v := int64(0); v < hdrSubCount; v++ {
		if got := hdrValue(hdrIndex(uint64(v))); got != v {
			t.Fatalf("hdrValue(hdrIndex(%d)) = %d", v, got)
		}
	}
	// Log range: the midpoint must sit within the bucket's relative error
	// bound, and indices must be monotone in the value.
	prev := -1
	for _, v := range []uint64{64, 65, 100, 1000, 12345, 1 << 20, 1<<40 + 12345, 1 << 62, math.MaxInt64} {
		idx := hdrIndex(v)
		if idx < prev {
			t.Fatalf("hdrIndex not monotone at %d", v)
		}
		if idx >= hdrBuckets {
			t.Fatalf("hdrIndex(%d) = %d out of range %d", v, idx, hdrBuckets)
		}
		prev = idx
		mid := float64(hdrValue(idx))
		if rel := math.Abs(mid-float64(v)) / float64(v); rel > 1.0/float64(hdrHalf) {
			t.Errorf("bucket midpoint %v for %d off by %.2f%%", mid, v, 100*rel)
		}
	}
}

// TestHDRQuantilesAgainstOracle records log-uniform samples and compares
// every quantile against the exact sorted-slice answer: the histogram's
// bucket resolution bounds the relative error.
func TestHDRQuantilesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h HDRHistogram
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1, 2^30): exercises many octaves, like
		// latencies spanning µs to minutes.
		v := int64(math.Exp(rng.Float64() * math.Log(float64(1<<30))))
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	got := h.Quantiles(qs...)
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(len(samples))))
		exact := float64(samples[rank-1])
		if rel := math.Abs(float64(got[i])-exact) / exact; rel > 1.0/float64(hdrHalf) {
			t.Errorf("q%.3f = %d, exact %v: relative error %.2f%% exceeds bucket resolution", q, got[i], exact, 100*rel)
		}
	}
	if h.Count() != 20000 {
		t.Errorf("Count = %d", h.Count())
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	if mean := h.Mean(); math.Abs(mean-sum/20000) > 1e-6 {
		t.Errorf("Mean = %v, want %v", mean, sum/20000)
	}
}

func TestHDRSmallAndEdgeCases(t *testing.T) {
	var h HDRHistogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	h.Record(-5) // clamps to 0
	h.Record(3)
	h.Record(60) // still in the exact range
	if got := h.Quantiles(0.0, 0.5, 1.0); got[0] != 0 || got[1] != 3 || got[2] != 60 {
		t.Errorf("quantiles = %v, want [0 3 60] (exact range)", got)
	}
}

func TestHDRConcurrentRecord(t *testing.T) {
	var h HDRHistogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	// p50 of 8×[1..1000] is 500; allow bucket resolution.
	if got := h.Quantile(0.5); math.Abs(float64(got)-500)/500 > 1.0/float64(hdrHalf) {
		t.Errorf("p50 = %d, want ≈500", got)
	}
}

func TestHDRRecordZeroAllocs(t *testing.T) {
	var h HDRHistogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHistogramQuantilesMatchOracle pins Quantiles to the sorted-slice
// oracle (and to Percentile).
func TestHistogramQuantilesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Histogram
	samples := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		v := rng.Float64() * 100
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Float64s(samples)
	qs := []float64{0.5, 0.9, 0.99, 0.999, 1}
	got := h.Quantiles(qs...)
	for i, q := range qs {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		if got[i] != samples[idx] {
			t.Errorf("Histogram q%v = %v, oracle %v", q, got[i], samples[idx])
		}
		if p := h.Percentile(100 * q); p != got[i] {
			t.Errorf("Quantiles(%v) = %v disagrees with Percentile = %v", q, got[i], p)
		}
	}
	if empty := (&Histogram{}).Quantiles(0.5, 0.99); empty[0] != 0 || empty[1] != 0 {
		t.Errorf("empty Quantiles = %v, want zeros", empty)
	}
}
