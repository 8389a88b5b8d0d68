package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/workload"
)

func freshDB(t *testing.T) *statedb.DB {
	t.Helper()
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		t.Fatalf("statedb.New: %v", err)
	}
	return db
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	kv := func() []chaincode.Contract { return []chaincode.Contract{chaincode.KVContract{}} }
	gen := func(rng *rand.Rand, p Params) (workload.Generator, error) { return workload.NoOp{}, nil }
	r := NewRegistry()
	cases := map[string]Scenario{
		"empty name":    {Contracts: kv, Generator: gen},
		"nil contracts": {Name: "x", Generator: gen},
		"nil generator": {Name: "x", Contracts: kv},
	}
	for name, s := range cases {
		if err := r.Register(s); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if err := r.Register(Scenario{Name: "x", Contracts: kv, Generator: gen}); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	if err := r.Register(Scenario{Name: "x", Contracts: kv, Generator: gen}); err == nil {
		t.Fatalf("duplicate name accepted")
	}
	if _, ok := r.Get("x"); !ok {
		t.Fatalf("registered scenario not resolvable")
	}
	if _, ok := r.Get("nosuch"); ok {
		t.Fatalf("unknown name resolved")
	}
}

func TestNamesSortedAndDeterministic(t *testing.T) {
	kv := func() []chaincode.Contract { return []chaincode.Contract{chaincode.KVContract{}} }
	gen := func(rng *rand.Rand, p Params) (workload.Generator, error) { return workload.NoOp{}, nil }
	r := NewRegistry()
	// Register out of order; Names must come back sorted regardless.
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(Scenario{Name: name, Contracts: kv, Generator: gen}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := 0; i < 5; i++ {
		if got := r.Names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestBuiltinRoster(t *testing.T) {
	want := []string{"analytics", "auction", "create", "mixed", "msmallbank", "noop", "singlemod", "token"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("builtin names = %v, want %v", got, want)
	}
	for _, name := range want {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) missing", name)
		}
		if sc.Doc == "" {
			t.Errorf("%s: empty Doc", name)
		}
		if len(sc.Contracts()) == 0 {
			t.Errorf("%s: no contracts", name)
		}
	}
}

func TestContractsDedupAndSort(t *testing.T) {
	contracts := Builtin().Contracts()
	if len(contracts) == 0 {
		t.Fatal("no contracts from builtin registry")
	}
	seen := map[string]bool{}
	prev := ""
	for _, c := range contracts {
		name := c.Name()
		if seen[name] {
			t.Errorf("contract %q appears twice", name)
		}
		seen[name] = true
		if name <= prev {
			t.Errorf("contracts out of order: %q after %q", name, prev)
		}
		prev = name
	}
	// Extras merge in and an extra that shadows an existing name never
	// introduces a duplicate entry.
	withExtra := Builtin().Contracts(chaincode.SupplyChain{}, chaincode.SupplyChain{})
	if len(withExtra) != len(contracts)+1 {
		t.Fatalf("extras: got %d contracts, want %d", len(withExtra), len(contracts)+1)
	}
	if !reflect.DeepEqual(withExtra, AllContracts()) {
		// AllContracts is exactly builtin + supply chain.
		t.Fatalf("AllContracts diverges from Builtin().Contracts(SupplyChain)")
	}
}

// TestGenesisSatisfiesInvariant seeds each builtin scenario's genesis into a
// fresh database and checks the scenario's own invariant against it: a
// scenario whose declared starting state violates its declared invariant
// could never pass the chaos matrix.
func TestGenesisSatisfiesInvariant(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			p := Params{Accounts: 8, Theta: 0.5, ReadHot: 0.3, WriteHot: 0.3}
			db := freshDB(t)
			if err := sc.Seed(db, p); err != nil {
				t.Fatalf("Seed: %v", err)
			}
			if err := sc.CheckInvariant(db, p); err != nil {
				t.Fatalf("genesis state violates invariant: %v", err)
			}
			// The generator must construct under the same params it will be
			// driven with, and emit ops that target the scenario's contracts.
			gen, err := sc.Generator(rand.New(rand.NewSource(1)), p)
			if err != nil {
				t.Fatalf("Generator: %v", err)
			}
			names := map[string]bool{}
			for _, c := range sc.Contracts() {
				names[c.Name()] = true
			}
			for i := 0; i < 50; i++ {
				op := gen.Next()
				if !names[op.Contract] {
					t.Fatalf("op %d targets contract %q, not declared by scenario", i, op.Contract)
				}
			}
		})
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Get(name)
		p := Params{Accounts: 16, Theta: 0.5, ReadHot: 0.3, WriteHot: 0.3}
		a, err := sc.Generator(rand.New(rand.NewSource(7)), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := sc.Generator(rand.New(rand.NewSource(7)), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 100; i++ {
			if x, y := a.Next(), b.Next(); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: op %d diverges under identical seeds: %+v vs %+v", name, i, x, y)
			}
		}
	}
}

func TestNilSafeAccessors(t *testing.T) {
	s := Scenario{Name: "bare"}
	if w := s.GenesisWrites(Params{}); w != nil {
		t.Fatalf("GenesisWrites on nil Genesis = %v, want nil", w)
	}
	db := freshDB(t)
	if err := s.Seed(db, Params{}); err != nil {
		t.Fatalf("Seed with nil Genesis: %v", err)
	}
	if err := s.CheckInvariant(db, Params{}); err != nil {
		t.Fatalf("CheckInvariant with nil Verify: %v", err)
	}
}

// TestLargeGenesisFingerprintIsPinned pins the state fingerprint of the
// 100 000-account msmallbank genesis, the benchmark's: the way the state
// database holds a genesis may change, the live contents it digests may not.
func TestLargeGenesisFingerprintIsPinned(t *testing.T) {
	sc, _ := Get("msmallbank")
	db := freshDB(t)
	if err := sc.Seed(db, Params{Accounts: 100000}); err != nil {
		t.Fatal(err)
	}
	if got, want := db.StateFingerprint(), "6ac63a8492a9c0737d01a558900fd1bf"; got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
	if got := db.Keys(); got != 100000 {
		t.Errorf("%d live keys, want 100000", got)
	}
}
