package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1<<12, 4)
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("txn-%d", i)
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestPositionsMatchDirectHashing(t *testing.T) {
	// Precomputed positions must behave identically to the string paths, and
	// positions computed on one filter must be valid on any same-geometry
	// filter.
	proto := New(1<<12, 4)
	other := New(1<<12, 4)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("txn-%d", i)
		pos := proto.Positions(nil, key)
		if len(pos) != 4 {
			t.Fatalf("positions len = %d", len(pos))
		}
		other.AddPositions(pos)
		if !other.MayContain(key) {
			t.Fatalf("AddPositions lost %q for string probe", key)
		}
		if !other.MayContainPositions(pos) {
			t.Fatalf("AddPositions lost %q for position probe", key)
		}
	}
	// A filter that never saw the keys reports them absent via positions too.
	empty := New(1<<12, 4)
	misses := 0
	for i := 0; i < 300; i++ {
		if !empty.MayContainPositions(proto.Positions(nil, fmt.Sprintf("txn-%d", i))) {
			misses++
		}
	}
	if misses != 300 {
		t.Fatalf("empty filter reported %d/300 keys present", 300-misses)
	}
}

func TestPositionsGeometryMismatchPanics(t *testing.T) {
	f := New(1<<10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched position count")
		}
	}()
	f.AddPositions(make([]uint64, 5))
}

func TestNoFalseNegativesProperty(t *testing.T) {
	prop := func(keys []string) bool {
		f := New(1<<10, 3)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(9586, 7) // the optimal geometry for 1 000 members at 1 %
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %v way above target 0.01", rate)
	}
}

func TestUnionEquivalentToInsertAll(t *testing.T) {
	prop := func(as, bs []string) bool {
		a := New(1<<10, 3)
		b := New(1<<10, 3)
		both := New(1<<10, 3)
		for _, k := range as {
			a.Add(k)
			both.Add(k)
		}
		for _, k := range bs {
			b.Add(k)
			both.Add(k)
		}
		a.Union(b)
		// The union must agree with insert-all on every bit, hence on every
		// query. Compare via the members plus random probes.
		for _, k := range append(append([]string(nil), as...), bs...) {
			if !a.MayContain(k) {
				return false
			}
		}
		for i := range a.bits {
			if a.bits[i] != both.bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for incompatible union")
		}
	}()
	New(64, 2).Union(New(128, 2))
}

func TestUnionNilIsNoop(t *testing.T) {
	f := New(64, 2)
	f.Add("x")
	f.Union(nil)
	if !f.MayContain("x") {
		t.Error("nil union clobbered filter")
	}
}

func TestReset(t *testing.T) {
	f := New(256, 3)
	for i := 0; i < 50; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	f.Reset()
	if f.FillRatio() != 0 {
		t.Error("reset filter should be empty")
	}
	if f.ApproxItems() != 0 {
		t.Error("reset filter should report zero items")
	}
	// An empty filter rejects everything.
	for i := 0; i < 50; i++ {
		if f.MayContain(fmt.Sprintf("k%d", i)) {
			t.Error("empty filter reported membership")
		}
	}
}

func TestClone(t *testing.T) {
	f := New(256, 3)
	f.Add("a")
	c := f.Clone()
	c.Add("b")
	if f.MayContain("b") {
		t.Error("clone mutation leaked into original")
	}
	if !c.MayContain("a") || !c.MayContain("b") {
		t.Error("clone lost members")
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	for _, tc := range []struct {
		bits   uint64
		hashes int
	}{{0, 3}, {64, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", tc.bits, tc.hashes)
				}
			}()
			New(tc.bits, tc.hashes)
		}()
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := New(1<<10, 4)
	prev := 0.0
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("key-%d", rng.Int()))
		if r := f.FillRatio(); r < prev {
			t.Fatalf("fill ratio decreased: %v -> %v", prev, r)
		} else {
			prev = r
		}
	}
	if prev <= 0 {
		t.Error("fill ratio should be positive after inserts")
	}
	if fpr := f.EstimatedFalsePositiveRate(); fpr <= 0 || fpr >= 1 {
		t.Errorf("implausible estimated FPR %v", fpr)
	}
}

func TestBitsGeometry(t *testing.T) {
	f := New(100, 5) // rounds up to 128
	nbits, hashes := f.Bits()
	if nbits != 128 || hashes != 5 {
		t.Errorf("geometry = (%d,%d), want (128,5)", nbits, hashes)
	}
}
