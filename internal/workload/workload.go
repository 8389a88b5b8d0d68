// Package workload implements the benchmark drivers of Section 5.2: the
// modified Smallbank workload of the Fabric++ evaluation (4 reads + 4 writes
// over 10k accounts with hot-access ratios), the original Smallbank mix and
// Create Account workloads of the FastFabric experiments (Figure 15), and
// the no-op / single-modification micro-workloads of Figure 1 — plus the
// zipfian generator that skews account selection.
package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
)

// Op is one contract invocation a client submits.
type Op struct {
	Contract string
	Function string
	Args     []string
}

// Generator produces a stream of operations. Implementations are
// deterministic given their seed.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Next returns the next operation.
	Next() Op
	// Seed populates the genesis state the workload expects.
	Seed(db *statedb.DB) error
}

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

// Zipf samples [0, n) with P(i) ∝ 1/(i+1)^theta via an exact inverse-CDF
// table. theta = 0 degenerates to uniform; unlike the YCSB closed form it
// stays exact for theta >= 1 (Figure 1 sweeps theta up to 1.2).
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds the sampler.
func NewZipf(rng *rand.Rand, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("workload: zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next samples one value.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(z.cdf) {
		lo = len(z.cdf) - 1
	}
	return lo
}

// GenesisVersion is the version every genesis write carries: position 1 of
// block 0, below any transaction the pipeline will ever seal. Endorsements
// over genesis keys therefore read this version, and every replica — peer
// state databases and orderer shadow states alike — must install genesis at
// exactly this version or MVCC verdicts diverge between them.
func GenesisVersion() seqno.Seq { return seqno.Commit(0, 1) }

// SeedGenesis installs writes as the block-0 genesis state. Every scenario
// genesis — in-process simulator runs, loopback fabric networks, and the
// process-per-node peers of a wire cluster — goes through this one helper so
// all replicas seed bit-identically. The database holds it as its base
// (statedb.DB.SeedBase). An empty write set is a no-op; seeding a database
// that already holds blocks is an error.
func SeedGenesis(db *statedb.DB, writes []protocol.WriteItem) error {
	if len(writes) == 0 {
		return nil
	}
	return db.SeedBase(GenesisVersion(), writes)
}

// AccountGenesis builds the genesis write set shared by the single-mod and
// modified-Smallbank workloads: n accounts with balance 1000 each.
func AccountGenesis(n int) []protocol.WriteItem {
	writes := make([]protocol.WriteItem, 0, n)
	vals := repeatedValue("1000", n)
	for i := 0; i < n; i++ {
		writes = append(writes, protocol.WriteItem{Key: chaincode.AccountKey(strconv.Itoa(i)), Value: vals(i)})
	}
	return writes
}

// repeatedValue returns n copies of v cut from one allocation, each capped
// so an append to one cannot reach the next: a genesis builder allocates per
// key, not per value.
func repeatedValue(v string, n int) func(i int) []byte {
	arena := bytes.Repeat([]byte(v), n)
	return func(i int) []byte { return arena[i*len(v) : (i+1)*len(v) : (i+1)*len(v)] }
}

// SmallbankGenesis builds the original-Smallbank genesis write set: n
// accounts with checking and savings balances of 10000 each.
func SmallbankGenesis(n int) []protocol.WriteItem {
	writes := make([]protocol.WriteItem, 0, 2*n)
	vals := repeatedValue("10000", 2*n)
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		writes = append(writes,
			protocol.WriteItem{Key: chaincode.CheckingKey(id), Value: vals(2 * i)},
			protocol.WriteItem{Key: chaincode.SavingsKey(id), Value: vals(2*i + 1)},
		)
	}
	return writes
}

// ---------------------------------------------------------------------------
// Figure 1 micro-workloads
// ---------------------------------------------------------------------------

// NoOp issues transactions with no data access.
type NoOp struct{}

// Name implements Generator.
func (NoOp) Name() string { return "no-op" }

// Next implements Generator.
func (NoOp) Next() Op { return Op{Contract: "kv", Function: "noop"} }

// Seed implements Generator.
func (NoOp) Seed(*statedb.DB) error { return nil }

// SingleMod issues single read-modify-write transactions over Accounts keys
// with zipfian skew — Figure 1's "single modification transactions with
// varying skewness".
type SingleMod struct {
	Accounts int
	Theta    float64
	zipf     *Zipf
}

// NewSingleMod builds the workload.
func NewSingleMod(rng *rand.Rand, accounts int, theta float64) *SingleMod {
	return &SingleMod{Accounts: accounts, Theta: theta, zipf: NewZipf(rng, accounts, theta)}
}

// Name implements Generator.
func (s *SingleMod) Name() string { return fmt.Sprintf("single-mod(θ=%.1f)", s.Theta) }

// Next implements Generator.
func (s *SingleMod) Next() Op {
	acct := s.zipf.Next()
	return Op{Contract: "kv", Function: "rmw", Args: []string{chaincode.AccountKey(fmt.Sprint(acct)), "1"}}
}

// Seed implements Generator.
func (s *SingleMod) Seed(db *statedb.DB) error {
	return SeedGenesis(db, AccountGenesis(s.Accounts))
}

// ---------------------------------------------------------------------------
// Modified Smallbank (Fabric++ evaluation; Figures 10-14)
// ---------------------------------------------------------------------------

// ModifiedSmallbank issues the Fabric++ evaluation's transactions: each
// reads 4 accounts and writes 4 accounts out of Accounts (default 10k), of
// which HotFrac (default 1%) are hot. Each read targets a hot account with
// probability ReadHotRatio; each write with probability WriteHotRatio.
type ModifiedSmallbank struct {
	Accounts      int
	HotFrac       float64
	ReadHotRatio  float64
	WriteHotRatio float64
	rng           *rand.Rand
}

// NewModifiedSmallbank builds the workload over `accounts` accounts (0 means
// the paper's default of 10k, of which 1% are hot). It rejects parameter
// combinations under which pick could never terminate: each transaction
// needs 4 distinct accounts, so the pool — and, at the ratio extremes, the
// reachable sub-pool — must hold at least 4.
func NewModifiedSmallbank(rng *rand.Rand, accounts int, readHot, writeHot float64) (*ModifiedSmallbank, error) {
	if accounts == 0 {
		accounts = 10000
	}
	if accounts < 4 {
		return nil, fmt.Errorf("workload: modified smallbank picks 4 distinct accounts per transaction, got a pool of %d", accounts)
	}
	for _, r := range []float64{readHot, writeHot} {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("workload: hot-access ratio %v outside [0, 1]", r)
		}
	}
	m := &ModifiedSmallbank{
		Accounts:      accounts,
		HotFrac:       0.01,
		ReadHotRatio:  readHot,
		WriteHotRatio: writeHot,
		rng:           rng,
	}
	// At ratio 1 every draw is hot; at ratio 0 every draw is cold. The
	// corresponding sub-pool must still offer 4 distinct accounts or pick
	// would spin forever.
	hot := m.hotAccounts()
	if (readHot == 1 || writeHot == 1) && hot < 4 {
		return nil, fmt.Errorf("workload: hot ratio 1 with only %d hot account(s); need >= 4", hot)
	}
	if (readHot == 0 || writeHot == 0) && accounts-hot < 4 {
		return nil, fmt.Errorf("workload: hot ratio 0 with only %d cold account(s); need >= 4", accounts-hot)
	}
	return m, nil
}

// hotAccounts is the size of the hot sub-pool (at least 1).
func (m *ModifiedSmallbank) hotAccounts() int {
	hot := int(float64(m.Accounts) * m.HotFrac)
	if hot < 1 {
		hot = 1
	}
	return hot
}

// Name implements Generator.
func (m *ModifiedSmallbank) Name() string {
	return fmt.Sprintf("msmallbank(rh=%.0f%%,wh=%.0f%%)", 100*m.ReadHotRatio, 100*m.WriteHotRatio)
}

// pick returns 4 distinct accounts, each hot with probability hotRatio.
// NewModifiedSmallbank validated that the reachable pool holds at least 4
// accounts, so the loop terminates (with probability 1).
func (m *ModifiedSmallbank) pick(hotRatio float64) []string {
	hot := m.hotAccounts()
	seen := map[int]bool{}
	out := make([]string, 0, 4)
	for len(out) < 4 {
		var acct int
		if m.rng.Float64() < hotRatio {
			acct = m.rng.Intn(hot)
		} else {
			acct = hot + m.rng.Intn(m.Accounts-hot)
		}
		if !seen[acct] {
			seen[acct] = true
			out = append(out, fmt.Sprint(acct))
		}
	}
	return out
}

// Next implements Generator.
func (m *ModifiedSmallbank) Next() Op {
	args := append(m.pick(m.ReadHotRatio), m.pick(m.WriteHotRatio)...)
	return Op{Contract: "msmallbank", Function: "op", Args: args}
}

// Seed implements Generator.
func (m *ModifiedSmallbank) Seed(db *statedb.DB) error {
	return SeedGenesis(db, AccountGenesis(m.Accounts))
}

// ---------------------------------------------------------------------------
// Original Smallbank (FastFabric experiments; Figure 15)
// ---------------------------------------------------------------------------

// CreateAccount issues uniform, contention-free account creations (blind
// writes) — Figure 15's first workload.
type CreateAccount struct {
	next int
}

// Name implements Generator.
func (c *CreateAccount) Name() string { return "create-account" }

// Next implements Generator.
func (c *CreateAccount) Next() Op {
	c.next++
	return Op{
		Contract: "smallbank",
		Function: "create_account",
		Args:     []string{fmt.Sprintf("new%d", c.next), "1000", "1000"},
	}
}

// Seed implements Generator.
func (c *CreateAccount) Seed(*statedb.DB) error { return nil }

// MixedSmallbank issues Figure 15's mixed workload: 50% read-only queries,
// 30% single-account updates (deposit_checking, write_check,
// transact_savings), 20% two-account updates (send_payment, amalgamate),
// with zipfian account skew theta.
type MixedSmallbank struct {
	Accounts int
	Theta    float64
	rng      *rand.Rand
	zipf     *Zipf
}

// NewMixedSmallbank builds the workload over `accounts` accounts (0 means
// 10k). The two-account transactions draw distinct accounts, so a pool of
// one could never terminate Next; it is rejected here instead.
func NewMixedSmallbank(rng *rand.Rand, accounts int, theta float64) (*MixedSmallbank, error) {
	if accounts == 0 {
		accounts = 10000
	}
	if accounts < 2 {
		return nil, fmt.Errorf("workload: mixed smallbank draws distinct account pairs, got a pool of %d", accounts)
	}
	return &MixedSmallbank{Accounts: accounts, Theta: theta, rng: rng, zipf: NewZipf(rng, accounts, theta)}, nil
}

// Name implements Generator.
func (m *MixedSmallbank) Name() string { return fmt.Sprintf("mixed-smallbank(θ=%.2f)", m.Theta) }

// Next implements Generator.
func (m *MixedSmallbank) Next() Op {
	a := fmt.Sprint(m.zipf.Next())
	switch r := m.rng.Float64(); {
	case r < 0.50:
		return Op{Contract: "smallbank", Function: "query", Args: []string{a}}
	case r < 0.80:
		fn := []string{"deposit_checking", "write_check", "transact_savings"}[m.rng.Intn(3)]
		return Op{Contract: "smallbank", Function: fn, Args: []string{a, "5"}}
	default:
		b := fmt.Sprint(m.zipf.Next())
		for b == a {
			b = fmt.Sprint(m.zipf.Next())
		}
		if m.rng.Intn(2) == 0 {
			return Op{Contract: "smallbank", Function: "send_payment", Args: []string{a, b, "5"}}
		}
		return Op{Contract: "smallbank", Function: "amalgamate", Args: []string{a, b}}
	}
}

// Seed implements Generator.
func (m *MixedSmallbank) Seed(db *statedb.DB) error {
	return SeedGenesis(db, SmallbankGenesis(m.Accounts))
}
