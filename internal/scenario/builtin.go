package scenario

import (
	"fmt"
	"math/rand"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/workload"
)

// Pool-size defaults. Each appears exactly once so a scenario's Generator
// and Genesis can never disagree about how much state the run assumes.
const (
	defaultAccounts = 10000 // single-mod, msmallbank, mixed (paper Section 5.2)
	defaultBidders  = 100   // auction
	defaultTokens   = 1000  // token
	defaultMetrics  = 200   // analytics
)

// Builtin returns the stock registry: the five evaluation workloads of
// Section 5.2 / Figure 1 plus the auction, token, and analytics scenarios.
// It builds the registry fresh on every call (descriptors are cheap values),
// keeping the package free of init-order and global-state concerns.
func Builtin() *Registry {
	r := NewRegistry()
	for _, s := range []Scenario{
		noop(), singleMod(), modifiedSmallbank(), createAccount(), mixedSmallbank(),
		auction(), token(), analytics(),
	} {
		if err := r.Register(s); err != nil {
			// Unreachable for the compile-time descriptors above; a failure
			// here is a programming error, not an input error.
			panic(err)
		}
	}
	return r
}

// Get resolves a name against the builtin registry.
func Get(name string) (Scenario, bool) { return Builtin().Get(name) }

// Names lists the builtin registry, sorted.
func Names() []string { return Builtin().Names() }

// AllContracts is the default contract set for registry-backed consumers:
// every builtin scenario's contracts plus the supply-chain demo contract
// (invoked by the examples, not by any generator).
func AllContracts() []chaincode.Contract {
	return Builtin().Contracts(chaincode.SupplyChain{})
}

func noop() Scenario {
	return Scenario{
		Name: "noop",
		Doc:  "transactions with no data access (Figure 1 baseline)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.KVContract{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NoOp{}, nil
		},
	}
}

func singleMod() Scenario {
	return Scenario{
		Name: "singlemod",
		Doc:  "single zipfian read-modify-writes (Figure 1)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.KVContract{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			n := p.AccountsOr(defaultAccounts)
			if n < 1 {
				return nil, fmt.Errorf("scenario: singlemod needs at least one account, got %d", n)
			}
			return workload.NewSingleMod(rng, n, p.Theta), nil
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.AccountBase(p.AccountsOr(defaultAccounts))
		},
		Verify: func(db *statedb.DB, p Params) error {
			return wantIntPopulation(db, chaincode.AccountKey(""), p.AccountsOr(defaultAccounts))
		},
	}
}

func modifiedSmallbank() Scenario {
	return Scenario{
		Name: "msmallbank",
		Doc:  "Fabric++ modified Smallbank: 4 reads + 4 writes with hot ratios (Figures 10-14)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.ModifiedSmallbank{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NewModifiedSmallbank(rng, p.AccountsOr(defaultAccounts), p.ReadHot, p.WriteHot)
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.AccountBase(p.AccountsOr(defaultAccounts))
		},
		Verify: func(db *statedb.DB, p Params) error {
			return wantIntPopulation(db, chaincode.AccountKey(""), p.AccountsOr(defaultAccounts))
		},
	}
}

func createAccount() Scenario {
	return Scenario{
		Name: "create",
		Doc:  "contention-free Smallbank account creation (Figure 15)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.Smallbank{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return &workload.CreateAccount{}, nil
		},
		Verify: func(db *statedb.DB, p Params) error {
			// Each committed creation blind-writes one checking and one
			// savings balance in the same transaction.
			_, checking, err := prefixStats(db, chaincode.CheckingKey(""))
			if err != nil {
				return err
			}
			_, savings, err := prefixStats(db, chaincode.SavingsKey(""))
			if err != nil {
				return err
			}
			if checking != savings {
				return fmt.Errorf("scenario: %d checking vs %d savings accounts; creations must write both", checking, savings)
			}
			return nil
		},
	}
}

func mixedSmallbank() Scenario {
	return Scenario{
		Name: "mixed",
		Doc:  "Smallbank mix: 50% queries, 30% single-account, 20% two-account updates (Figure 15)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.Smallbank{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NewMixedSmallbank(rng, p.AccountsOr(defaultAccounts), p.Theta)
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.SmallbankBase(p.AccountsOr(defaultAccounts))
		},
		Verify: func(db *statedb.DB, p Params) error {
			n := p.AccountsOr(defaultAccounts)
			if err := wantIntPopulation(db, chaincode.CheckingKey(""), n); err != nil {
				return err
			}
			return wantIntPopulation(db, chaincode.SavingsKey(""), n)
		},
	}
}

func auction() Scenario {
	return Scenario{
		Name: "auction",
		Doc:  "hot-key auction: every bid contends on one object",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.Auction{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NewAuction(rng, p.AccountsOr(defaultBidders))
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.AuctionBase()
		},
		Verify: func(db *statedb.DB, p Params) error {
			high, err := intAt(db, chaincode.AuctionHighKey)
			if err != nil {
				return err
			}
			best, err := maxPrefix(db, chaincode.BidKey(""))
			if err != nil {
				return err
			}
			// Every accepted bid raised the high-bid key in the same
			// transaction that recorded the bid, so under any serializable
			// schedule the standing high equals the best recorded bid (and
			// stays at its genesis 0 until the first acceptance).
			if high != best {
				return fmt.Errorf("scenario: standing high bid %d but best recorded bid %d", high, best)
			}
			if leader, ok := db.Get(chaincode.AuctionLeaderKey); ok {
				lb, err := intAt(db, chaincode.BidKey(string(leader.Value)))
				if err != nil {
					return err
				}
				if lb != high {
					return fmt.Errorf("scenario: leader %q recorded %d, standing high is %d", leader.Value, lb, high)
				}
			} else if high != 0 {
				return fmt.Errorf("scenario: high bid %d with no leader", high)
			}
			return nil
		},
	}
}

func token() Scenario {
	return Scenario{
		Name: "token",
		Doc:  "uniform token transfers under a fixed supply (money conservation)",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.Token{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NewTokenTransfer(rng, p.AccountsOr(defaultTokens))
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.TokenBase(p.AccountsOr(defaultTokens))
		},
		Verify: func(db *statedb.DB, p Params) error {
			n := p.AccountsOr(defaultTokens)
			sum, count, err := prefixStats(db, chaincode.TokenKey(""))
			if err != nil {
				return err
			}
			if count != n {
				return fmt.Errorf("scenario: %d token accounts, want %d", count, n)
			}
			supply := int64(n) * workload.TokenInitialBalance
			if sum != supply {
				return fmt.Errorf("scenario: total balance %d, issued supply %d — conservation violated", sum, supply)
			}
			return nil
		},
	}
}

func analytics() Scenario {
	return Scenario{
		Name: "analytics",
		Doc:  "read-heavy range scans with point updates under a running aggregate",
		Contracts: func() []chaincode.Contract {
			return []chaincode.Contract{chaincode.Analytics{}}
		},
		Generator: func(rng *rand.Rand, p Params) (workload.Generator, error) {
			return workload.NewAnalytics(rng, p.AccountsOr(defaultMetrics))
		},
		Genesis: func(p Params) (*statedb.Base, error) {
			return workload.AnalyticsBase(p.AccountsOr(defaultMetrics))
		},
		Verify: func(db *statedb.DB, p Params) error {
			n := p.AccountsOr(defaultMetrics)
			sum, count, err := prefixStats(db, chaincode.MetricKey(""))
			if err != nil {
				return err
			}
			if count != n {
				return fmt.Errorf("scenario: %d metrics, want %d", count, n)
			}
			agg, err := intAt(db, chaincode.MetricSumKey)
			if err != nil {
				return err
			}
			if agg != sum {
				return fmt.Errorf("scenario: aggregate %d but metrics sum to %d", agg, sum)
			}
			return nil
		},
	}
}
