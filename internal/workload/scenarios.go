// The auction, token, and analytics workloads open contention profiles the
// Section 5.2 benchmarks do not cover: a single globally-hot object, uniform
// low-contention transfers with a conservation law, and read-heavy range
// scans over a stable key population. They exist to exercise the scheduler
// comparison across conflict structures, not to reproduce a paper figure.

package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/statedb"
)

// ---------------------------------------------------------------------------
// Hot-key auction
// ---------------------------------------------------------------------------

// Auction bids on a single auction object: every writing transaction reads
// and writes the same high-bid key, the worst case for MVCC validation and
// the best case for ordering-aware schedulers. Bid amounts ratchet upward
// with occasional ties, so a deterministic share of bids loses at
// endorsement time.
type Auction struct {
	// Bidders is the size of the bidder pool.
	Bidders int
	rng     *rand.Rand
	ceiling int
}

// NewAuction builds the workload over `bidders` bidders (0 means 100).
func NewAuction(rng *rand.Rand, bidders int) (*Auction, error) {
	if bidders == 0 {
		bidders = 100
	}
	if bidders < 1 {
		return nil, fmt.Errorf("workload: auction needs at least one bidder, got %d", bidders)
	}
	return &Auction{Bidders: bidders, rng: rng}, nil
}

// Name implements Generator.
func (a *Auction) Name() string { return "auction" }

// Next implements Generator: 80% bids against the single object, 20%
// read-only watches of the current leader.
func (a *Auction) Next() Op {
	if a.rng.Float64() < 0.20 {
		return Op{Contract: "auction", Function: "watch"}
	}
	bidder := fmt.Sprintf("b%d", a.rng.Intn(a.Bidders))
	// The ceiling ratchets by 0–3 per bid: increments of zero produce bids
	// that cannot beat the current high and fail at endorsement.
	a.ceiling += a.rng.Intn(4)
	return Op{Contract: "auction", Function: "bid", Args: []string{bidder, fmt.Sprint(a.ceiling)}}
}

// Seed implements Generator.
func (a *Auction) Seed(db *statedb.DB) error {
	return seedBuilt(db, AuctionBase)
}

// AuctionBase builds AuctionGenesis() as a base.
func AuctionBase() (*statedb.Base, error) {
	return statedb.NewBase(AuctionGenesis(), GenesisVersion())
}

// AuctionGenesis opens the auction: a single object with a zero high bid.
func AuctionGenesis() []protocol.WriteItem {
	return []protocol.WriteItem{{Key: chaincode.AuctionHighKey, Value: []byte("0")}}
}

// ---------------------------------------------------------------------------
// Uniform token transfers
// ---------------------------------------------------------------------------

// TokenTransfer moves tokens between uniformly drawn account pairs — low,
// evenly spread contention under a strict conservation law: no transfer mints
// or burns, so the total supply is invariant whatever the scheduler does.
type TokenTransfer struct {
	// Accounts is the size of the account pool.
	Accounts int
	rng      *rand.Rand
}

// NewTokenTransfer builds the workload over `accounts` accounts (0 means
// 1000). Transfers draw distinct pairs, so a pool of one is rejected.
func NewTokenTransfer(rng *rand.Rand, accounts int) (*TokenTransfer, error) {
	if accounts == 0 {
		accounts = 1000
	}
	if accounts < 2 {
		return nil, fmt.Errorf("workload: token transfers draw distinct account pairs, got a pool of %d", accounts)
	}
	return &TokenTransfer{Accounts: accounts, rng: rng}, nil
}

// Name implements Generator.
func (t *TokenTransfer) Name() string { return "token" }

// Next implements Generator: 90% transfers between distinct uniform
// accounts, 10% balance queries.
func (t *TokenTransfer) Next() Op {
	a := t.rng.Intn(t.Accounts)
	if t.rng.Float64() < 0.10 {
		return Op{Contract: "token", Function: "balance", Args: []string{fmt.Sprint(a)}}
	}
	b := t.rng.Intn(t.Accounts)
	for b == a {
		b = t.rng.Intn(t.Accounts)
	}
	amount := 1 + t.rng.Intn(5)
	return Op{Contract: "token", Function: "transfer", Args: []string{fmt.Sprint(a), fmt.Sprint(b), fmt.Sprint(amount)}}
}

// Seed implements Generator.
func (t *TokenTransfer) Seed(db *statedb.DB) error {
	return seedBuilt(db, func() (*statedb.Base, error) { return TokenBase(t.Accounts) })
}

// TokenInitialBalance is every account's genesis balance; the conservation
// invariant checks the live sum against Accounts times this.
const TokenInitialBalance = 1000

// TokenBase builds TokenGenesis(n) as a base.
func TokenBase(n int) (*statedb.Base, error) {
	return numberedBase(n, strconv.Itoa(TokenInitialBalance), []string{chaincode.TokenKey("")})
}

// TokenGenesis issues the full supply: n accounts holding
// TokenInitialBalance each.
func TokenGenesis(n int) []protocol.WriteItem {
	writes := make([]protocol.WriteItem, 0, n)
	vals := repeatedValue(strconv.Itoa(TokenInitialBalance), n)
	for i := 0; i < n; i++ {
		writes = append(writes, protocol.WriteItem{Key: chaincode.TokenKey(strconv.Itoa(i)), Value: vals(i)})
	}
	return writes
}

// ---------------------------------------------------------------------------
// Read-heavy analytics
// ---------------------------------------------------------------------------

// Analytics mixes read-only range scans over a stable metric population with
// point updates that also maintain a running aggregate: reads dominate, and
// the aggregate key turns every update into a hot-key writer whose lost
// updates the invariant would expose.
type Analytics struct {
	// Items is the size of the metric population.
	Items int
	rng   *rand.Rand
}

// NewAnalytics builds the workload over `items` metrics (0 means 200).
func NewAnalytics(rng *rand.Rand, items int) (*Analytics, error) {
	if items == 0 {
		items = 200
	}
	if items < 1 {
		return nil, fmt.Errorf("workload: analytics needs at least one metric, got %d", items)
	}
	return &Analytics{Items: items, rng: rng}, nil
}

// Name implements Generator.
func (a *Analytics) Name() string { return "analytics" }

// Next implements Generator: 50% full range scans, 20% audits (scan plus
// aggregate read), 30% point updates.
func (a *Analytics) Next() Op {
	switch r := a.rng.Float64(); {
	case r < 0.50:
		return Op{Contract: "analytics", Function: "scan"}
	case r < 0.70:
		return Op{Contract: "analytics", Function: "audit"}
	default:
		id := fmt.Sprint(a.rng.Intn(a.Items))
		delta := 1 + a.rng.Intn(9)
		if a.rng.Intn(2) == 0 {
			delta = -delta
		}
		return Op{Contract: "analytics", Function: "update", Args: []string{id, fmt.Sprint(delta)}}
	}
}

// Seed implements Generator.
func (a *Analytics) Seed(db *statedb.DB) error {
	return seedBuilt(db, func() (*statedb.Base, error) { return AnalyticsBase(a.Items) })
}

// AnalyticsInitialValue is every metric's genesis value.
const AnalyticsInitialValue = 100

// AnalyticsBase builds AnalyticsGenesis(n) as a base.
func AnalyticsBase(n int) (*statedb.Base, error) {
	return numberedBase(n, strconv.Itoa(AnalyticsInitialValue), []string{chaincode.MetricKey("")},
		protocol.WriteItem{Key: chaincode.MetricSumKey, Value: []byte(strconv.Itoa(n * AnalyticsInitialValue))})
}

// AnalyticsGenesis seeds n metrics plus the matching aggregate.
func AnalyticsGenesis(n int) []protocol.WriteItem {
	writes := make([]protocol.WriteItem, 0, n+1)
	vals := repeatedValue(strconv.Itoa(AnalyticsInitialValue), n)
	for i := 0; i < n; i++ {
		writes = append(writes, protocol.WriteItem{Key: chaincode.MetricKey(strconv.Itoa(i)), Value: vals(i)})
	}
	writes = append(writes, protocol.WriteItem{
		Key:   chaincode.MetricSumKey,
		Value: []byte(strconv.Itoa(n * AnalyticsInitialValue)),
	})
	return writes
}
