package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fabricsharp/internal/protocol"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.P50() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Errorf("N = %d", h.N())
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.P50() != 50 {
		t.Errorf("P50 = %v", h.P50())
	}
	if h.P95() != 95 {
		t.Errorf("P95 = %v", h.P95())
	}
	if h.P99() != 99 {
		t.Errorf("P99 = %v", h.P99())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramAddAfterPercentile(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.P50()
	h.Add(1) // must re-sort lazily
	if h.P50() != 1 {
		t.Errorf("P50 after re-add = %v", h.P50())
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			h.Add(v)
		}
		return h.P50() <= h.P95() && h.P95() <= h.P99() && h.P99() <= h.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortTally(t *testing.T) {
	tally := AbortTally{}
	tally.Inc(protocol.MVCCConflict)
	tally.Inc(protocol.MVCCConflict)
	tally.Inc(protocol.AbortCycle)
	tally.Inc(protocol.Valid) // valid does not count toward Total
	if tally.Total() != 3 {
		t.Errorf("Total = %d", tally.Total())
	}
	s := tally.String()
	if !strings.Contains(s, "mvcc-conflict=2") || !strings.Contains(s, "cycle=1") {
		t.Errorf("String = %q", s)
	}
	// Busiest first.
	if strings.Index(s, "mvcc-conflict") > strings.Index(s, "cycle") {
		t.Errorf("ordering wrong: %q", s)
	}
}

func TestAbortTallyEmptyString(t *testing.T) {
	if s := (AbortTally{}).String(); s != "" {
		t.Errorf("empty tally renders %q", s)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000+8*2 {
		t.Errorf("Counter = %d", got)
	}
}
