package node

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fabricsharp/internal/metrics"
	"fabricsharp/internal/scenario"
)

// LoadOptions configures an open-loop load run against a process-per-node
// cluster. Open-loop means submissions are scheduled by a rate controller at
// TargetTPS regardless of how long earlier submissions take to complete —
// the arrival process a real client population generates — so rising
// latency shows up as rising latency, not as a silently collapsing offered
// rate (the closed-loop artifact known as coordinated omission).
type LoadOptions struct {
	// Orderers and Peers are the cluster's wire addresses.
	Orderers []string
	Peers    []string
	// TargetTPS is the offered submission rate (required, > 0).
	TargetTPS int
	// Duration is how long the generator offers load (required, > 0).
	Duration time.Duration
	// Workload names a registered scenario (default "msmallbank"). The
	// cluster must have been booted with the same workload/accounts genesis:
	// scenario genesis seeds the whole account pool at block 0, which is
	// what makes multi-million-account pools practical — no per-account
	// setup transactions.
	Workload string
	// Accounts sizes the scenario's account pool (0 = scenario default).
	Accounts int
	// Theta is the zipfian skew over the account pool; ReadHot/WriteHot are
	// the modified-SmallBank hot-access ratios. All pass through to
	// scenario.Params verbatim.
	Theta    float64
	ReadHot  float64
	WriteHot float64
	// Workers bounds submission concurrency (default 4×GOMAXPROCS). Each
	// worker owns one wire client and one explicit rng (Seed+worker), so a
	// run is reproducible regardless of scheduling.
	Workers int
	// Seed is the base workload seed (worker w draws from Seed+w).
	Seed int64
	// DialTimeout bounds each worker's cluster dial (default 30s).
	DialTimeout time.Duration
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Workload == "" {
		o.Workload = "msmallbank"
	}
	if o.Workers <= 0 {
		o.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 30 * time.Second
	}
	return o
}

// Validate checks the option shape without touching the network.
func (o LoadOptions) Validate() error {
	o = o.withDefaults()
	if len(o.Orderers) == 0 || len(o.Peers) == 0 {
		return fmt.Errorf("node: load needs orderer and peer addresses")
	}
	if o.TargetTPS <= 0 {
		return fmt.Errorf("node: load needs a positive target TPS, got %d", o.TargetTPS)
	}
	if o.Duration <= 0 {
		return fmt.Errorf("node: load needs a positive duration, got %s", o.Duration)
	}
	if _, ok := scenario.Get(o.Workload); !ok {
		return fmt.Errorf("node: unknown workload %q (have %s)", o.Workload, strings.Join(scenario.Names(), ", "))
	}
	return nil
}

// LoadReport summarizes one open-loop run.
type LoadReport struct {
	// TargetTPS echoes the configured rate; Offered counts submissions the
	// pacer scheduled; Dropped counts scheduled submissions that could not
	// even enqueue (the cluster fell catastrophically behind — nonzero
	// Dropped means the achieved numbers understate the overload).
	TargetTPS int
	Offered   uint64
	Dropped   uint64
	// Committed, Aborted, and Failed partition the completed submissions.
	Committed uint64
	Aborted   uint64
	Failed    uint64
	// Elapsed is the wall time from first scheduled submission to last
	// completion; AchievedTPS is completed submissions (committed+aborted)
	// over Elapsed.
	Elapsed     time.Duration
	AchievedTPS float64
	// Latency quantiles (milliseconds), end to end from each submission's
	// *scheduled* instant to its resolved verdict — queueing delay counts,
	// so the numbers stay honest under overload.
	LatencyP50MS  float64
	LatencyP90MS  float64
	LatencyP99MS  float64
	LatencyP999MS float64
	LatencyMaxMS  float64
	// CommittedIDs lists every transaction ID acked committed — the ground
	// truth trace coverage is asserted against.
	CommittedIDs []string
}

// loadJobBuffer bounds the pacer→worker queue. At the cap, ~1M scheduled
// stamps (8MiB) can back up before the pacer counts drops; below it the
// buffer holds the whole run, so the pacer never blocks and the offered
// rate never degrades to closed-loop.
const loadJobBuffer = 1 << 20

// RunLoad drives an open-loop load run: a token-bucket pacer schedules
// submissions at TargetTPS onto a deep queue, and a fixed worker pool
// executes them (endorse → submit → wait for the result) against the
// cluster. Latency is measured from the scheduled instant, and an HDR
// histogram (lock-free, fixed memory) absorbs any sample volume. Cancel ctx
// to stop early; the report covers whatever completed.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return LoadReport{}, err
	}
	sc, _ := scenario.Get(opts.Workload)
	params := scenario.Params{
		Accounts: opts.Accounts,
		Theta:    opts.Theta,
		ReadHot:  opts.ReadHot,
		WriteHot: opts.WriteHot,
	}
	// Fail fast on a bad workload shape before dialing anything.
	if _, err := sc.Generator(rand.New(rand.NewSource(opts.Seed)), params); err != nil {
		return LoadReport{}, fmt.Errorf("node: load workload: %w", err)
	}

	total := uint64(float64(opts.TargetTPS) * opts.Duration.Seconds())
	if total == 0 {
		total = 1
	}
	depth := total
	if depth > loadJobBuffer {
		depth = loadJobBuffer
	}
	jobs := make(chan time.Time, depth)

	var (
		offered, dropped           atomic.Uint64
		committed, aborted, failed atomic.Uint64
		latency                    metrics.HDRHistogram
		idsMu                      sync.Mutex
		committedIDs               []string
		errOnce                    sync.Once
		firstErr                   error
	)
	setErr := func(err error) { errOnce.Do(func() { firstErr = err }) }

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)))
			gen, err := sc.Generator(rng, params)
			if err != nil {
				setErr(fmt.Errorf("node: load worker %d: %w", w, err))
				return
			}
			client, err := DialClient(fmt.Sprintf("load%d", w), opts.Orderers, opts.Peers, opts.DialTimeout)
			if err != nil {
				setErr(fmt.Errorf("node: load worker %d: %w", w, err))
				return
			}
			defer client.Close()
			for scheduled := range jobs {
				op := gen.Next()
				res, err := client.Submit(op.Contract, op.Function, op.Args...)
				latency.Record(time.Since(scheduled).Nanoseconds())
				switch {
				case err != nil && strings.Contains(err.Error(), "endorsement refused"):
					// The contract itself refused (e.g. a losing auction
					// bid): an abort by design, not a failure.
					aborted.Add(1)
				case err != nil:
					failed.Add(1)
				case res.Code.Committed():
					committed.Add(1)
					idsMu.Lock()
					committedIDs = append(committedIDs, res.TxID)
					idsMu.Unlock()
				default:
					aborted.Add(1)
				}
			}
		}(w)
	}

	// The pacer: schedule submission i at start + i/TargetTPS, catching up
	// in bursts after oversleeps so the offered rate holds at TargetTPS on
	// average. A full queue (the workers are hopelessly behind) counts a
	// drop rather than blocking — blocking here would quietly turn the run
	// closed-loop.
	start := time.Now()
	period := time.Second / time.Duration(opts.TargetTPS)
	if period <= 0 {
		period = time.Nanosecond
	}
	tick := period
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
pace:
	for i := uint64(0); i < total; {
		now := time.Now()
		due := uint64(now.Sub(start)/period) + 1
		if due > total {
			due = total
		}
		for ; i < due; i++ {
			scheduled := start.Add(time.Duration(i) * period)
			select {
			case jobs <- scheduled:
				offered.Add(1)
			default:
				dropped.Add(1)
			}
		}
		if i >= total {
			break
		}
		select {
		case <-ctx.Done():
			break pace
		case <-time.After(tick):
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	if firstErr != nil {
		return LoadReport{}, firstErr
	}
	done := committed.Load() + aborted.Load()
	qs := latency.Quantiles(0.5, 0.9, 0.99, 0.999, 1)
	toMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LoadReport{
		TargetTPS:     opts.TargetTPS,
		Offered:       offered.Load(),
		Dropped:       dropped.Load(),
		Committed:     committed.Load(),
		Aborted:       aborted.Load(),
		Failed:        failed.Load(),
		Elapsed:       elapsed,
		AchievedTPS:   float64(done) / elapsed.Seconds(),
		LatencyP50MS:  toMS(qs[0]),
		LatencyP90MS:  toMS(qs[1]),
		LatencyP99MS:  toMS(qs[2]),
		LatencyP999MS: toMS(qs[3]),
		LatencyMaxMS:  toMS(qs[4]),
		CommittedIDs:  committedIDs,
	}, nil
}
