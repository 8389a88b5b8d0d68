package orderer

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/trace"
	"fabricsharp/internal/transport"
)

// proposals is a consensus stream that notes when each time-to-cut marker
// was proposed.
type proposals struct {
	consensus.Service
	mu sync.Mutex
	at []time.Time
}

func (p *proposals) Submit(env consensus.Envelope) error {
	if env.Tx == nil && env.CutBlock != 0 {
		p.mu.Lock()
		p.at = append(p.at, time.Now())
		p.mu.Unlock()
	}
	return p.Service.Submit(env)
}

func (p *proposals) times() []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Time(nil), p.at...)
}

// timedService starts a traced vanilla-Fabric Service with no endorsement
// check on a recording stream. Each sealed block reaches sealed after the
// delivery has slept for stall, which stretches every cut by that much.
// Once the test has ended the delivery drops its block instead of waiting
// for room in sealed, so a test that stopped draining it cannot wedge
// Close.
func timedService(t *testing.T, timeout, stall time.Duration) (*Service, *proposals, <-chan *ledger.Block) {
	t.Helper()
	stream := &proposals{Service: SoloStream(t)}
	sealed := make(chan *ledger.Block, 64)
	ended := make(chan struct{})
	svc, err := New(Config{
		CoreConfig: CoreConfig{Options: Options{System: sched.SystemFabric, BlockSize: 1000, BlockTimeout: timeout}},
		Ordering:   stream,
		Tracer:     trace.New("orderer0", "orderer", 1<<12),
		Deliver: func(b *ledger.Block) error {
			time.Sleep(stall)
			select {
			case sealed <- b:
			case <-ended:
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Close)
	t.Cleanup(func() { close(ended) }) // runs before Close: cleanups run last-in first-out
	return svc, stream, sealed
}

// SoloStream starts a one-member Raft group, a standalone orderer's
// consensus stream (exported to the package's external tests).
func SoloStream(t *testing.T) *transport.RaftService {
	t.Helper()
	s, err := transport.StartRaft(transport.RaftConfig{ID: "orderer0", Cluster: []string{"orderer0"}, Listen: "mem:"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// blindPut is a transaction that writes one private key: admitted by every
// scheduler, conflicting with nothing.
func blindPut(i int) *protocol.Transaction {
	tx := &protocol.Transaction{
		ID: protocol.TxID(fmt.Sprintf("put%04d", i)), ClientID: "timer", Contract: "kv", Function: "put",
		RWSet: protocol.RWSet{Writes: []protocol.WriteItem{{Key: fmt.Sprintf("own%d", i), Value: []byte("v")}}},
	}
	tx.RWSet.Precompute()
	return tx
}

// TestSlowCutsKeepTheTimersCadence: the time a cut takes counts against the
// block period, not on top of it. Every cut here stalls in its delivery for
// two thirds of the timeout under a steady trickle of admissions, so a timer
// re-armed only after the cut returns would propose markers a timeout plus
// a stall apart; the timer that proposed the marker keeps running instead.
func TestSlowCutsKeepTheTimersCadence(t *testing.T) {
	const timeout, stall = 60 * time.Millisecond, 40 * time.Millisecond
	svc, stream, _ := timedService(t, timeout, stall)
	done := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				_ = svc.Submit(consensus.Envelope{Tx: blindPut(i)})
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(stream.times()) < 9 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	at := stream.times()
	if len(at) < 9 {
		t.Fatalf("%d markers proposed in 5 s", len(at))
	}
	var gaps []time.Duration
	for i := 2; i < len(at); i++ { // the first gap may start from an idle timer
		gaps = append(gaps, at[i].Sub(at[i-1]))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	if median := gaps[len(gaps)/2]; median > timeout+stall/2 {
		t.Fatalf("median marker period %v with %v cuts (gaps %v), want about the timeout %v", median, stall, gaps, timeout)
	}
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLoneAdmissionAfterAnIdleTimerIsCut: the timer a marker cut left running
// expires over the empty batch that follows; the next admission must arm it
// again, or that transaction would wait for the next one forever. Each cut
// also leaves its stage breakdown on the orderer's ring.
func TestLoneAdmissionAfterAnIdleTimerIsCut(t *testing.T) {
	const timeout = 50 * time.Millisecond
	svc, _, sealed := timedService(t, timeout, 0)
	if err := svc.Submit(consensus.Envelope{Tx: blindPut(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sealed:
	case <-time.After(2 * time.Second):
		t.Fatal("the first transaction was never cut")
	}
	time.Sleep(4 * timeout) // the running timer expires over an empty batch
	start := time.Now()
	if err := svc.Submit(consensus.Envelope{Tx: blindPut(2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-sealed:
		if took := time.Since(start); b.Header.Number != 2 || took > 5*timeout {
			t.Fatalf("block %d sealed %v after the lone admission, want block 2 within about %v", b.Header.Number, took, timeout)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a lone admission after the timer went idle was never cut")
	}
	// Both cuts left their breakdown on the ring: every stage once per block.
	stages := map[string]int{}
	for _, ev := range svc.cfg.Tracer.Dump().Events {
		if ev.Stage >= trace.StageFormation {
			stages[ev.TxID]++
		}
	}
	if stages["1"] != trace.NumCutStages || stages["2"] != trace.NumCutStages {
		t.Fatalf("cut-stage events per block %v, want %d each for blocks 1 and 2", stages, trace.NumCutStages)
	}
}

// TestDeferredMembersFillTheBatch: Core.Pending counts the deferred tail, so
// a batch whose BlockSize-th entry arrives with deferrals among its members
// is cut at BlockSize by the stream, not by a timer (which here never
// fires), and the deferrals ride its tail.
func TestDeferredMembersFillTheBatch(t *testing.T) {
	for _, system := range hybrids {
		t.Run(string(system), func(t *testing.T) {
			r := newRig(t, system, Options{}) // endorses against genesis
			msp, policy := identity.DevMSP("peer0")
			sealed := make(chan *ledger.Block, 4)
			svc, err := New(Config{
				CoreConfig: CoreConfig{
					Options: Options{System: system, Rescue: true, BlockSize: 4, BlockTimeout: time.Hour,
						Genesis: rigGenesis},
					MSP: msp, Policy: policy, Registry: r.reg,
				},
				Ordering: SoloStream(t),
				Deliver: func(b *ledger.Block) error {
					sealed <- b
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			svc.Start()
			t.Cleanup(svc.Close)
			submit := func(tx *protocol.Transaction) {
				if err := svc.Submit(consensus.Envelope{Tx: tx}); err != nil {
					t.Fatal(err)
				}
			}
			next := func() *ledger.Block {
				select {
				case b := <-sealed:
					return b
				case <-time.After(5 * time.Second):
					t.Fatal("no block cut at BlockSize")
					return nil
				}
			}
			// Block 1 commits a writer of hot; both later rmws of hot were
			// endorsed before it and are deferred at arrival.
			submit(r.endorse(0, "kv", "rmw", "hot", "1"))
			for i := 0; i < 3; i++ {
				submit(r.endorse(0, "kv", "put", fmt.Sprint("a", i), "v"))
			}
			next()
			late1, late2 := r.endorse(0, "kv", "rmw", "hot", "1"), r.endorse(0, "kv", "rmw", "hot", "1")
			submit(r.endorse(0, "kv", "put", "b0", "v"))
			submit(late1)
			submit(r.endorse(0, "kv", "put", "b1", "v"))
			submit(late2) // the BlockSize-th entry, itself deferred
			b := next()
			if len(b.Transactions) != 4 || b.Transactions[2].ID != late1.ID || b.Transactions[3].ID != late2.ID {
				t.Fatalf("block %d holds %d transactions, want the 2 admitted then the 2 deferred", b.Header.Number, len(b.Transactions))
			}
			if b.Validation[2] != protocol.Rescued || b.Validation[3] != protocol.Rescued {
				t.Fatalf("tail sealed %v, want both rescued", b.Validation[2:])
			}
		})
	}
}

// TestShadowFoldLeavesOneSpan: an orderer's shadow folds once its entries
// reach the fold step, at a point of the stream alone, and the ring holds
// one fold span, keyed by the block whose apply folded. Each block holds
// 512 blind puts of fresh keys, and with no genesis the step is statedb's
// minimum of 1 024 entries: the apply of block 3 folds the 1 024 that
// blocks 1 and 2 left.
func TestShadowFoldLeavesOneSpan(t *testing.T) {
	const blockSize = 512
	tracer := trace.New("orderer0", "orderer", 1<<14)
	sealed := make(chan *ledger.Block, 4)
	svc, err := New(Config{
		CoreConfig: CoreConfig{Options: Options{System: sched.SystemFabric, BlockSize: blockSize, BlockTimeout: time.Minute}},
		Ordering:   SoloStream(t),
		Tracer:     tracer,
		Deliver:    func(b *ledger.Block) error { sealed <- b; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Close)
	for i := 0; i < 3*blockSize; i++ {
		if err := svc.Submit(consensus.Envelope{Tx: blindPut(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for b := 1; b <= 3; b++ {
		select {
		case <-sealed:
		case <-time.After(10 * time.Second):
			t.Fatalf("block %d not sealed in 10 s", b)
		}
	}
	if spans := trace.Spans(tracer.Dump(), trace.StageFold); len(spans) != 1 || spans[0].Block != 3 || spans[0].NS <= 0 {
		t.Errorf("fold spans %+v, want one at block 3", spans)
	}
}
