package network

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/sim"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

// smallRun returns a quick contended configuration for tests.
func smallRun(system sched.System, seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.NewModifiedSmallbank(rng, 500, 0.3, 0.3)
	if err != nil {
		panic(err)
	}
	w.HotFrac = 0.02
	return Config{
		System:      system,
		Workload:    w,
		Seed:        seed,
		Duration:    4 * sim.Second,
		RequestRate: 300,
		BlockSize:   50,
	}
}

func TestRunAllSystemsSmoke(t *testing.T) {
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			res, err := Run(smallRun(system, 1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Submitted == 0 || res.Blocks == 0 {
				t.Fatalf("nothing happened: %+v", res)
			}
			if res.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if res.Committed > res.InLedger {
				t.Fatalf("committed %d > in-ledger %d", res.Committed, res.InLedger)
			}
			// Conservation: everything submitted is accounted for.
			accounted := res.InLedger + res.EarlyAborts.Total()
			if accounted > res.Submitted {
				t.Fatalf("accounted %d > submitted %d", accounted, res.Submitted)
			}
			// With a 20s drain everything should land.
			if accounted < res.Submitted {
				t.Errorf("%d transactions unaccounted (submitted %d, accounted %d)",
					res.Submitted-accounted, res.Submitted, accounted)
			}
			if err := res.Chain.Verify(); err != nil {
				t.Fatal(err)
			}
			if res.EffectiveTPS <= 0 || res.RawTPS < res.EffectiveTPS {
				t.Errorf("rates: raw %.1f effective %.1f", res.RawTPS, res.EffectiveTPS)
			}
			if res.Latency.N() == 0 || res.Latency.P50() <= 0 {
				t.Error("no latency samples")
			}
		})
	}
}

func TestSerializabilityAllSystems(t *testing.T) {
	// The headline safety property, end to end, per system, across seeds:
	// committed schedules are serializable and serial re-execution
	// reproduces the pipeline's final state exactly.
	for _, system := range sched.Systems() {
		system := system
		t.Run(string(system), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := Run(smallRun(system, seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifySerializability(res); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestSharpCommitsMoreThanFabric(t *testing.T) {
	// The paper's core claim, reproduced end to end on a contended
	// workload: Sharp's effective throughput exceeds vanilla Fabric's.
	fabric, err := Run(smallRun(sched.SystemFabric, 7))
	if err != nil {
		t.Fatal(err)
	}
	sharp, err := Run(smallRun(sched.SystemSharp, 7))
	if err != nil {
		t.Fatal(err)
	}
	if sharp.Committed <= fabric.Committed {
		t.Errorf("sharp committed %d <= fabric %d", sharp.Committed, fabric.Committed)
	}
	if sharp.SharpStats == nil || sharp.SharpStats.Accepted == 0 {
		t.Error("sharp stats missing")
	}
}

func TestVanillaCollapsesUnderLongSimulations(t *testing.T) {
	// Figure 14's stark effect: vanilla Fabric's simulation/commit lock
	// serializes long simulations against block commits.
	base := smallRun(sched.SystemFabric, 3)
	slow := base
	slow.ReadInterval = 100 * sim.Millisecond
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if float64(slowRes.Committed) > 0.7*float64(fast.Committed) {
		t.Errorf("vanilla did not degrade: fast %d slow %d", fast.Committed, slowRes.Committed)
	}

	// Sharp under the same stress degrades far less.
	sharpSlow := slow
	sharpSlow.System = sched.SystemSharp
	sharpRes, err := Run(sharpSlow)
	if err != nil {
		t.Fatal(err)
	}
	if sharpRes.Committed <= slowRes.Committed {
		t.Errorf("sharp (%d) should beat vanilla (%d) under long simulations",
			sharpRes.Committed, slowRes.Committed)
	}
}

func TestFabricPPSimulationAborts(t *testing.T) {
	// With long read intervals Fabric++ aborts cross-block readers during
	// simulation (Figure 14's "Simulation abort" share).
	cfg := smallRun(sched.SystemFabricPP, 5)
	cfg.ReadInterval = 60 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EarlyAborts[protocol.AbortSimulation] == 0 {
		t.Error("no simulation aborts despite long reads")
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, system := range sched.Systems() {
		a, err := Run(smallRun(system, 11))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(smallRun(system, 11))
		if err != nil {
			t.Fatal(err)
		}
		if a.Committed != b.Committed || a.InLedger != b.InLedger || a.Blocks != b.Blocks {
			t.Fatalf("%s runs diverged: %d/%d/%d vs %d/%d/%d", system,
				a.Committed, a.InLedger, a.Blocks, b.Committed, b.InLedger, b.Blocks)
		}
		if a.Chain.Len() == 0 || !bytes.Equal(a.Chain.TipHash(), b.Chain.TipHash()) {
			t.Fatalf("%s ledgers diverged", system)
		}
		// The tip hash chains the transactions; the sealed verdicts are block
		// metadata outside it.
		a.Chain.ForEach(func(ab *ledger.Block) bool {
			bb, _ := b.Chain.Get(ab.Header.Number)
			if !bytes.Equal(wire.EncodeBlock(ab), wire.EncodeBlock(bb)) {
				t.Fatalf("%s block %d diverged", system, ab.Header.Number)
			}
			return true
		})
		if a.State.StateFingerprint() != b.State.StateFingerprint() {
			t.Fatalf("%s final states diverged", system)
		}
	}
}

// TestSealedVerdictsMatchCommit checks, for every system with rescue off and
// on, that the verdicts the orderer.Core sealed at each cut — from its shadow
// state, before the block was delivered — are the codes a validator derives
// replaying the sealed chain over the genesis state: the sequential reference
// for the plain systems, the committers' validator (which has the rescue
// phase, and under fabric# and focc-s designates the deferred tail from the
// sealed codes) with rescue. (The commit station asserts the same per block
// at run time; this checks the recorded chain independently.)
func TestSealedVerdictsMatchCommit(t *testing.T) {
	for _, system := range sched.Systems() {
		for _, rescue := range []bool{false, true} {
			system, rescue := system, rescue
			t.Run(fmt.Sprintf("%s/rescue=%v", system, rescue), func(t *testing.T) {
				cfg := smallRun(system, 5)
				cfg.Rescue = rescue
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Chain.Len() == 0 {
					t.Fatal("no blocks sealed")
				}
				state := res.Genesis.Clone()
				scheduler, err := sched.New(system, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				vopts := validation.Options{MVCC: scheduler.NeedsMVCCValidation()}
				registry := chaincode.NewRegistry(scenario.AllContracts()...)
				aborts, rescued := 0, 0
				res.Chain.ForEach(func(blk *ledger.Block) bool {
					var codes []protocol.ValidationCode
					if rescue {
						out := commit.ValidateBlock(state, blk, commit.Options{Options: vopts, Rescue: true, Registry: registry})
						if !bytes.Equal(out.Rescue.Digest, blk.RescueDigest) {
							t.Fatalf("block %d: re-derived rescue digest differs from the sealed one", blk.Header.Number)
						}
						if err := state.ApplyBlock(blk.Header.Number, out.Writes); err != nil {
							t.Fatal(err)
						}
						codes = out.Codes
					} else if codes, err = validation.ValidateAndCommit(state, blk, vopts); err != nil {
						t.Fatal(err)
					}
					if len(blk.Validation) != len(codes) {
						t.Fatalf("block %d sealed %d verdicts for %d transactions", blk.Header.Number, len(blk.Validation), len(codes))
					}
					for i, code := range codes {
						if blk.Validation[i] != code {
							t.Fatalf("block %d tx %d: sealed %v, reference validation %v", blk.Header.Number, i, blk.Validation[i], code)
						}
						switch code {
						case protocol.Valid:
						case protocol.Rescued:
							rescued++
						default:
							aborts++
						}
					}
					return true
				})
				if state.StateFingerprint() != res.State.StateFingerprint() {
					t.Fatal("replaying the sealed chain does not reproduce the run's final state")
				}
				if !rescue && (system == sched.SystemFabric || system == sched.SystemFoccL) && aborts == 0 {
					t.Error("no validation aborts under contention — the equality above was never exercised")
				}
				if rescue && system != sched.SystemFabricPP && rescued == 0 {
					t.Error("nothing rescued under contention — the rescue rows were never exercised")
				}
			})
		}
	}
}

func TestBatchTimeoutCutsPartialBlocks(t *testing.T) {
	cfg := smallRun(sched.SystemFabric, 2)
	cfg.RequestRate = 10 // far below the block size per second
	cfg.BlockSize = 1000
	cfg.BlockTimeout = 500 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks < 3 {
		t.Errorf("timeout cutter produced only %d blocks", res.Blocks)
	}
	if res.Committed == 0 {
		t.Error("nothing committed under timeout-driven blocks")
	}
}

func TestNoOpWorkloadNothingAborts(t *testing.T) {
	cfg := Config{
		System:      sched.SystemFabric,
		Workload:    workload.NoOp{},
		Seed:        1,
		Duration:    3 * sim.Second,
		RequestRate: 300,
		BlockSize:   50,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.InLedger || res.Committed == 0 {
		t.Errorf("no-op workload aborted transactions: %d of %d", res.Committed, res.InLedger)
	}
}

func TestFastFabricProfileFaster(t *testing.T) {
	mk := func(profile Profile) Config {
		return Config{
			System:      sched.SystemSharp,
			Profile:     profile,
			Workload:    &workload.CreateAccount{},
			Seed:        4,
			Duration:    4 * sim.Second,
			RequestRate: 2500,
			BlockSize:   100,
		}
	}
	fabric, err := Run(mk(ProfileFabric))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(mk(ProfileFastFabric))
	if err != nil {
		t.Fatal(err)
	}
	if fast.EffectiveTPS < 2*fabric.EffectiveTPS {
		t.Errorf("fastfabric profile not faster: %.0f vs %.0f", fast.EffectiveTPS, fabric.EffectiveTPS)
	}
}

func TestMissingWorkloadRejected(t *testing.T) {
	if _, err := Run(Config{System: sched.SystemFabric}); err == nil {
		t.Error("config without workload accepted")
	}
}

func TestAbortTaxonomyPerSystem(t *testing.T) {
	// Each system's aborts land in its own taxonomy bucket.
	res, err := Run(smallRun(sched.SystemFoccS, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.EarlyAborts[protocol.AbortConcurrentWW] == 0 {
		t.Error("focc-s produced no concurrent-ww aborts on a contended workload")
	}
	res, err = Run(smallRun(sched.SystemFabric, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.LateAborts[protocol.MVCCConflict] == 0 {
		t.Error("fabric produced no MVCC aborts on a contended workload")
	}
}
