package network

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/workload"
)

// hybrids are the systems whose scheduler skips MVCC: with Rescue they defer
// what they would abort and commit it by post-order re-execution.
var hybrids = []sched.System{sched.SystemSharp, sched.SystemFoccS}

func rescuedIn(chain *ledger.Chain) (rescued int) {
	chain.ForEach(func(b *ledger.Block) bool {
		for _, code := range b.Validation {
			if code == protocol.Rescued {
				rescued++
			}
		}
		return true
	})
	return rescued
}

// TestHybridSerializability is the oracle for the deferred tail: seeded
// contended modified-Smallbank streams through fabric# + rescue and focc-s +
// rescue, every run through VerifySerializability — an acyclic precedence
// graph over what committed, and a serial re-execution that reproduces the
// final state byte for byte. The same streams with Rescue off are the
// baseline the hybrid must beat.
func TestHybridSerializability(t *testing.T) {
	for _, system := range hybrids {
		system := system
		t.Run(string(system), func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				plain, err := Run(smallRun(system, seed))
				if err != nil {
					t.Fatal(err)
				}
				cfg := smallRun(system, seed)
				cfg.Rescue = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifySerializability(res); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rescued := rescuedIn(res.Chain)
				if rescued == 0 {
					t.Fatalf("seed %d: nothing was deferred and rescued on a contended stream", seed)
				}
				if res.Committed <= plain.Committed {
					t.Errorf("seed %d: committed %d of %d with the tail, %d without", seed, res.Committed, res.Submitted, plain.Committed)
				}
				t.Logf("seed %d: committed %d → %d of %d (%d rescued, %d still aborted in a tail)",
					seed, plain.Committed, res.Committed, res.Submitted, rescued, res.LateAborts.Total())
			}
		})
	}
}

// payments is a workload of fixed-amount payments among a handful of
// accounts: every committed schedule that is serializable conserves the
// total, and a lost update breaks it.
type payments struct {
	rng      *rand.Rand
	accounts int
}

func (p *payments) Name() string { return "payments" }

func (p *payments) Next() workload.Op {
	from := p.rng.Intn(p.accounts)
	to := (from + 1 + p.rng.Intn(p.accounts-1)) % p.accounts
	return workload.Op{Contract: "smallbank", Function: "send_payment", Args: []string{fmt.Sprint(from), fmt.Sprint(to), "7"}}
}

func (p *payments) Seed(db *statedb.DB) error {
	return workload.SeedGenesis(db, workload.SmallbankGenesis(p.accounts))
}

// TestHybridConservesMoney runs 200+ blocks of payments among ten accounts —
// most arrivals conflict — and audits the total, as examples/smallbank does.
func TestHybridConservesMoney(t *testing.T) {
	const accounts = 10
	for _, system := range hybrids {
		system := system
		t.Run(string(system), func(t *testing.T) {
			res, err := Run(Config{
				System: system, Rescue: true, Seed: 11,
				Workload: &payments{rng: rand.New(rand.NewSource(11)), accounts: accounts},
				Duration: 10 * sim.Second, RequestRate: 400, BlockSize: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Blocks < 200 {
				t.Fatalf("only %d blocks", res.Blocks)
			}
			if rescued := rescuedIn(res.Chain); rescued < int(res.Committed)/4 {
				t.Fatalf("%d of %d commits were rescued: the stream is not contended enough to mean anything", rescued, res.Committed)
			}
			total := 0
			for i := 0; i < accounts; i++ {
				vv, ok := res.State.Get(chaincode.CheckingKey(fmt.Sprint(i)))
				if !ok {
					t.Fatalf("account %d missing", i)
				}
				bal, err := strconv.Atoi(string(vv.Value))
				if err != nil {
					t.Fatal(err)
				}
				total += bal
			}
			if want := accounts * 10000; total != want {
				t.Fatalf("total checking balance %d after %d committed payments in %d blocks, want %d", total, res.Committed, res.Blocks, want)
			}
			if err := VerifySerializability(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
