// Package scenario unifies what a workload needs to run end to end — the
// contracts it invokes, the generator that drives it, the genesis state it
// assumes, and the invariant its history must preserve — behind one
// registered descriptor. Every consumer (the discrete-event simulator, the
// loopback fabric network, the process-per-node cluster, the benchmarks, and
// the command-line tools) resolves workloads from the same registry, so a
// scenario added here is immediately runnable everywhere, including the
// chaos convergence matrix.
package scenario

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/workload"
)

// Params tunes a scenario. The zero value asks for each scenario's defaults;
// note that Theta, ReadHot, and WriteHot pass through verbatim (zero is a
// legitimate swept value for all three), while Accounts == 0 selects the
// scenario's default pool size.
type Params struct {
	// Accounts sizes the account/bidder/metric pool (0 = scenario default).
	Accounts int
	// Theta is the zipfian skew for scenarios that sample accounts.
	Theta float64
	// ReadHot and WriteHot are the modified-Smallbank hot-access ratios.
	ReadHot  float64
	WriteHot float64
}

// AccountsOr returns the configured pool size, or def when unset.
func (p Params) AccountsOr(def int) int {
	if p.Accounts > 0 {
		return p.Accounts
	}
	return def
}

// Scenario bundles contracts, generator, genesis, and invariant under one
// name. Descriptors are values: registering one never runs code, and every
// field except Verify and Genesis is required.
type Scenario struct {
	// Name is the registry key (also the -workload flag value).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Contracts returns the chaincode the scenario invokes.
	Contracts func() []chaincode.Contract
	// Generator builds the operation stream. It validates p and owns all
	// randomness through rng (no global sources — determinism contract).
	Generator func(rng *rand.Rand, p Params) (workload.Generator, error)
	// Genesis builds the block-0 state the scenario assumes as a base, at
	// workload.GenesisVersion; nil when it starts from an empty state. Every
	// replica — in-process databases, wire-cluster peers, and orderer shadow
	// states — installs exactly this base.
	Genesis func(p Params) (*statedb.Base, error)
	// Verify checks the scenario's invariant against a post-run state (e.g.
	// money conservation); nil when the scenario has none.
	Verify func(db *statedb.DB, p Params) error
}

// GenesisBase builds the scenario's genesis base (nil-safe: nil for a
// scenario without one).
func (s Scenario) GenesisBase(p Params) (*statedb.Base, error) {
	if s.Genesis == nil {
		return nil, nil
	}
	return s.Genesis(p)
}

// Seed installs the scenario's genesis into db through the shared
// workload.SeedGenesis helper — the same path every other replica uses.
func (s Scenario) Seed(db *statedb.DB, p Params) error {
	base, err := s.GenesisBase(p)
	if err != nil {
		return err
	}
	return workload.SeedGenesis(db, base)
}

// CheckInvariant runs Verify when the scenario declares one.
func (s Scenario) CheckInvariant(db *statedb.DB, p Params) error {
	if s.Verify == nil {
		return nil
	}
	return s.Verify(db, p)
}

// ---------------------------------------------------------------------------
// Invariant helpers
// ---------------------------------------------------------------------------

// prefixStats sums and counts every live value under prefix, requiring each
// to parse as a signed integer. Summation commutes, so the unordered
// ForEachLatest visit yields a deterministic result.
func prefixStats(db *statedb.DB, prefix string) (sum int64, count int, err error) {
	db.ForEachLatest(func(key string, vv statedb.VersionedValue) bool {
		if !strings.HasPrefix(key, prefix) {
			return true
		}
		v, perr := strconv.ParseInt(string(vv.Value), 10, 64)
		if perr != nil {
			err = fmt.Errorf("scenario: key %q holds %q, not an integer", key, vv.Value)
			return false
		}
		sum += v
		count++
		return true
	})
	return sum, count, err
}

// maxPrefix returns the maximum integer value under prefix (0 when empty).
func maxPrefix(db *statedb.DB, prefix string) (highest int64, err error) {
	db.ForEachLatest(func(key string, vv statedb.VersionedValue) bool {
		if !strings.HasPrefix(key, prefix) {
			return true
		}
		v, perr := strconv.ParseInt(string(vv.Value), 10, 64)
		if perr != nil {
			err = fmt.Errorf("scenario: key %q holds %q, not an integer", key, vv.Value)
			return false
		}
		if v > highest {
			highest = v
		}
		return true
	})
	return highest, err
}

// intAt reads one key as an integer.
func intAt(db *statedb.DB, key string) (int64, error) {
	vv, ok := db.Get(key)
	if !ok {
		return 0, fmt.Errorf("scenario: key %q missing", key)
	}
	v, err := strconv.ParseInt(string(vv.Value), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario: key %q holds %q, not an integer", key, vv.Value)
	}
	return v, nil
}

// wantIntPopulation asserts that exactly `want` keys live under prefix and
// that every value parses as an integer — the structural invariant of the
// fixed-population account scenarios.
func wantIntPopulation(db *statedb.DB, prefix string, want int) error {
	_, count, err := prefixStats(db, prefix)
	if err != nil {
		return err
	}
	if count != want {
		return fmt.Errorf("scenario: %d keys under %q, want %d", count, prefix, want)
	}
	return nil
}
