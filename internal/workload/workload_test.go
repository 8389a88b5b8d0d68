package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fabricsharp/internal/statedb"
)

// liveKeys counts the database's live keys at its latest snapshot.
func liveKeys(db *statedb.DB) int {
	n := 0
	db.ForEachLatest(func(string, statedb.VersionedValue) bool { n++; return true })
	return n
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/50 {
			t.Errorf("bucket %d = %d, want ~%d", i, c, n/10)
		}
	}
}

func TestZipfSkewIncreasesWithTheta(t *testing.T) {
	top := func(theta float64) float64 {
		z := NewZipf(rand.New(rand.NewSource(2)), 1000, theta)
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Next() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	p05, p10, p12 := top(0.5), top(1.0), top(1.2)
	if !(p05 < p10 && p10 < p12) {
		t.Errorf("head mass not increasing: %.3f %.3f %.3f", p05, p10, p12)
	}
	// At theta=1.2 over 1000 items the head should be clearly hot.
	if p12 < 0.1 {
		t.Errorf("theta=1.2 head mass %.3f too small", p12)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(3)), 7, 1.2)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 7 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestZipfPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewZipf(rand.New(rand.NewSource(1)), 0, 1)
}

func newDB(t *testing.T) *statedb.DB {
	t.Helper()
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestModifiedSmallbankShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, err := NewModifiedSmallbank(rng, 0, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	if err := w.Seed(db); err != nil {
		t.Fatal(err)
	}
	if liveKeys(db) != 10000 {
		t.Errorf("seeded %d accounts", liveKeys(db))
	}
	hotReads, totalReads := 0, 0
	for i := 0; i < 2000; i++ {
		op := w.Next()
		if op.Contract != "msmallbank" || op.Function != "op" || len(op.Args) != 8 {
			t.Fatalf("op = %+v", op)
		}
		// Reads are args 0-3; hot accounts are ids < 100 (1% of 10k).
		seen := map[string]bool{}
		for _, a := range op.Args[:4] {
			if seen[a] {
				t.Fatalf("duplicate read account in %v", op.Args[:4])
			}
			seen[a] = true
			var id int
			fmt.Sscan(a, &id)
			totalReads++
			if id < 100 {
				hotReads++
			}
		}
	}
	ratio := float64(hotReads) / float64(totalReads)
	if math.Abs(ratio-0.3) > 0.03 {
		t.Errorf("read hot ratio = %.3f want ~0.30", ratio)
	}
}

func TestMixedSmallbankMix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := NewMixedSmallbank(rng, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	if err := w.Seed(db); err != nil {
		t.Fatal(err)
	}
	if liveKeys(db) != 200 { // checking + savings per account
		t.Errorf("seeded %d keys", liveKeys(db))
	}
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		op := w.Next()
		switch op.Function {
		case "query":
			counts["ro"]++
		case "deposit_checking", "write_check", "transact_savings":
			counts["single"]++
			if len(op.Args) != 2 {
				t.Fatalf("args = %v", op.Args)
			}
		case "send_payment", "amalgamate":
			counts["double"]++
			if op.Args[0] == op.Args[1] {
				t.Fatal("two-account op with identical accounts")
			}
		default:
			t.Fatalf("unexpected function %q", op.Function)
		}
	}
	if math.Abs(float64(counts["ro"])/n-0.5) > 0.03 {
		t.Errorf("read-only share %.3f want ~0.50", float64(counts["ro"])/n)
	}
	if math.Abs(float64(counts["single"])/n-0.3) > 0.03 {
		t.Errorf("single-account share %.3f want ~0.30", float64(counts["single"])/n)
	}
	if math.Abs(float64(counts["double"])/n-0.2) > 0.03 {
		t.Errorf("two-account share %.3f want ~0.20", float64(counts["double"])/n)
	}
}

func TestCreateAccountUnique(t *testing.T) {
	w := &CreateAccount{}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		op := w.Next()
		if op.Function != "create_account" {
			t.Fatalf("fn = %s", op.Function)
		}
		if seen[op.Args[0]] {
			t.Fatalf("duplicate account %s", op.Args[0])
		}
		seen[op.Args[0]] = true
	}
	if err := w.Seed(newDB(t)); err != nil {
		t.Fatal(err)
	}
}

func TestNoOpAndSingleMod(t *testing.T) {
	if op := (NoOp{}).Next(); op.Function != "noop" {
		t.Errorf("noop op = %+v", op)
	}
	rng := rand.New(rand.NewSource(6))
	s := NewSingleMod(rng, 100, 0.8)
	db := newDB(t)
	if err := s.Seed(db); err != nil {
		t.Fatal(err)
	}
	op := s.Next()
	if op.Function != "rmw" || len(op.Args) != 2 {
		t.Errorf("singlemod op = %+v", op)
	}
	if s.Name() == "" || (NoOp{}).Name() == "" {
		t.Error("names empty")
	}
}

func TestConstructorValidation(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(9)) }
	cases := []struct {
		name    string
		build   func() error
		wantErr bool
	}{
		{"msmallbank pool of 3", func() error {
			_, err := NewModifiedSmallbank(rng(), 3, 0.1, 0.1)
			return err
		}, true},
		{"msmallbank ratio above 1", func() error {
			_, err := NewModifiedSmallbank(rng(), 0, 1.5, 0.1)
			return err
		}, true},
		{"msmallbank negative ratio", func() error {
			_, err := NewModifiedSmallbank(rng(), 0, 0.1, -0.1)
			return err
		}, true},
		// 100 accounts → 1 hot: readHot=1 would draw 4 distinct hot
		// accounts from a sub-pool of one, the pick loop that used to spin.
		{"msmallbank all-hot with tiny hot pool", func() error {
			_, err := NewModifiedSmallbank(rng(), 100, 1, 0.1)
			return err
		}, true},
		// 4 accounts → 1 hot, 3 cold: writeHot=0 needs 4 distinct cold.
		{"msmallbank all-cold with tiny cold pool", func() error {
			_, err := NewModifiedSmallbank(rng(), 4, 0.1, 0)
			return err
		}, true},
		{"msmallbank defaults", func() error {
			_, err := NewModifiedSmallbank(rng(), 0, 0.1, 0.1)
			return err
		}, false},
		{"msmallbank extremes on big pool", func() error {
			_, err := NewModifiedSmallbank(rng(), 10000, 1, 0)
			return err
		}, false},
		{"mixed pool of 1", func() error {
			_, err := NewMixedSmallbank(rng(), 1, 0.5)
			return err
		}, true},
		{"mixed pool of 2", func() error {
			_, err := NewMixedSmallbank(rng(), 2, 0.5)
			return err
		}, false},
		{"auction no bidders", func() error {
			_, err := NewAuction(rng(), -1)
			return err
		}, true},
		{"token pool of 1", func() error {
			_, err := NewTokenTransfer(rng(), 1)
			return err
		}, true},
		{"analytics no metrics", func() error {
			_, err := NewAnalytics(rng(), -5)
			return err
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if tc.wantErr && err == nil {
				t.Error("expected error")
			}
			if !tc.wantErr && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}

func TestModifiedSmallbankExtremesTerminate(t *testing.T) {
	// Ratio 1 (all hot) and ratio 0 (all cold) on a validated pool must
	// still produce 4 distinct accounts per side.
	rng := rand.New(rand.NewSource(11))
	w, err := NewModifiedSmallbank(rng, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		op := w.Next()
		if len(op.Args) != 8 {
			t.Fatalf("args = %v", op.Args)
		}
	}
}

func TestAuctionWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w, err := NewAuction(rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	if err := w.Seed(db); err != nil {
		t.Fatal(err)
	}
	if liveKeys(db) != 1 {
		t.Errorf("auction genesis seeded %d keys, want 1", liveKeys(db))
	}
	lastBid := -1
	bids, watches := 0, 0
	for i := 0; i < 1000; i++ {
		op := w.Next()
		switch op.Function {
		case "bid":
			bids++
			var amount int
			fmt.Sscan(op.Args[1], &amount)
			if amount < lastBid {
				t.Fatalf("bid amounts must ratchet: %d after %d", amount, lastBid)
			}
			lastBid = amount
		case "watch":
			watches++
		default:
			t.Fatalf("unexpected function %q", op.Function)
		}
	}
	if bids == 0 || watches == 0 {
		t.Errorf("mix degenerate: %d bids, %d watches", bids, watches)
	}
}

func TestTokenTransferWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w, err := NewTokenTransfer(rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	if err := w.Seed(db); err != nil {
		t.Fatal(err)
	}
	if liveKeys(db) != 50 {
		t.Errorf("token genesis seeded %d keys, want 50", liveKeys(db))
	}
	for i := 0; i < 1000; i++ {
		op := w.Next()
		if op.Function == "transfer" && op.Args[0] == op.Args[1] {
			t.Fatal("self-transfer generated")
		}
	}
}

func TestAnalyticsWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w, err := NewAnalytics(rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	if err := w.Seed(db); err != nil {
		t.Fatal(err)
	}
	if liveKeys(db) != 21 { // 20 metrics + aggregate
		t.Errorf("analytics genesis seeded %d keys, want 21", liveKeys(db))
	}
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[w.Next().Function]++
	}
	for _, fn := range []string{"scan", "audit", "update"} {
		if counts[fn] == 0 {
			t.Errorf("no %s operations in 2000 draws", fn)
		}
	}
	if counts["scan"]+counts["audit"] <= counts["update"] {
		t.Errorf("analytics should be read-heavy: %v", counts)
	}
}

func TestSeedGenesisRejectsNonFreshDB(t *testing.T) {
	db := newDB(t)
	base, err := AccountBase(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := SeedGenesis(db, base); err != nil {
		t.Fatal(err)
	}
	if err := SeedGenesis(db, base); err == nil {
		t.Error("re-seeding a seeded database must fail")
	}
}

func TestGeneratorsDeterministicGivenSeed(t *testing.T) {
	mk := func() []string {
		rng := rand.New(rand.NewSource(77))
		w, err := NewModifiedSmallbank(rng, 0, 0.2, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		var ops []string
		for i := 0; i < 50; i++ {
			ops = append(ops, fmt.Sprint(w.Next()))
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at %d", i)
		}
	}
}
