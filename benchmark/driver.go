package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/workload"
)

// submitter is the one client call the driver makes. node.Client.Submit is
// the call that survives pushed results and pipelined submits, so later
// changes are measured through an unchanged instrument; tests substitute a
// fake.
type submitter interface {
	Submit(contract, function string, args ...string) (code protocol.ValidationCode, txID string, err error)
}

type wireClient struct{ c *node.Client }

func (w wireClient) Submit(contract, function string, args ...string) (protocol.ValidationCode, string, error) {
	res, err := w.c.Submit(contract, function, args...)
	return res.Code, res.TxID, err
}

// sample is the driver's span record of one offered submission. Instants are
// nanoseconds since the phase started.
type sample struct {
	Sched int64 // when the submission was due (closed loop: when it was made)
	Enq   int64 // when the pacer handed it over
	Start int64 // when a client dequeued it and called Submit
	Done  int64 // when Submit returned
	Code  protocol.ValidationCode
	// Failed marks an error, a timeout or a submission never sent.
	Failed bool
	TxID   string // kept on traced phases only
}

// pool is the fixed set of wire clients with their seeded generators.
type pool struct {
	clients []submitter
	gens    []workload.Generator
	closers []*node.Client
}

// dialPool connects poolClients wire clients. Worker w draws its operations
// from rng(seed + w); the nodes see only the generated transactions.
func dialPool(c *cluster, seed int64, n int) (*pool, error) {
	sc, ok := scenario.Get(scenarioName)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered", scenarioName)
	}
	params := scenario.Params{Accounts: c.spec.Accounts, ReadHot: c.spec.ReadHot, WriteHot: c.spec.WriteHot}
	p := &pool{clients: make([]submitter, n), gens: make([]workload.Generator, n), closers: make([]*node.Client, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := sc.Generator(rand.New(rand.NewSource(seed+int64(w))), params)
			if err != nil {
				errs[w] = err
				return
			}
			cl, err := node.DialClient(fmt.Sprintf("c%d", w), addrsOf(c.orderers), addrsOf(c.peers), 30*time.Second)
			if err != nil {
				errs[w] = err
				return
			}
			cl.SubmitTimeout = 15 * time.Second
			p.gens[w], p.clients[w], p.closers[w] = gen, wireClient{cl}, cl
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			p.close()
			return nil, fmt.Errorf("dial client pool: %w", err)
		}
	}
	return p, nil
}

func (p *pool) close() {
	for _, c := range p.closers {
		if c != nil {
			c.Close()
		}
	}
}

// redirects sums the NotLeader redirects the clients followed.
func (p *pool) redirects() uint64 {
	var n uint64
	for _, c := range p.closers {
		n += c.Redirects.Value()
	}
	return n
}

// submitOne draws worker w's next operation and submits it.
func (p *pool) submitOne(w int, s *sample, t0 time.Time, traced bool) {
	op := p.gens[w].Next()
	s.Start = int64(time.Since(t0))
	code, txID, err := p.clients[w].Submit(op.Contract, op.Function, op.Args...)
	s.Done = int64(time.Since(t0))
	if err != nil {
		s.Failed = true
		return
	}
	s.Code = code
	if traced {
		s.TxID = txID
	}
}

// goBeside runs a phase's side task (fault injection, accounting snapshots)
// on its own goroutine, which the phase waits for; nil means none.
func goBeside(wg *sync.WaitGroup, at func(t0 time.Time), t0 time.Time) {
	if at == nil {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		at(t0)
	}()
}

// job is one scheduled submission handed from the pacer to a client.
type job struct{ sched, enq int64 }

// openLoop offers rate submissions per second for dur: the pacer schedules
// submission i at start + i/rate onto a queue deep enough never to block,
// and every sample is timed from its scheduled instant, so a stalled client
// charges its delay to the submissions queued behind it. at, when set, is
// called once from its own goroutine when the phase starts (fault
// injection, accounting snapshots).
func (p *pool) openLoop(rate int, dur time.Duration, traced bool, at func(t0 time.Time)) []sample {
	total := int(float64(rate) * dur.Seconds())
	jobs := make(chan job, total) // holds the whole phase: the pacer never blocks
	out := make([][]sample, len(p.clients))
	t0 := time.Now()
	giveUp := int64(dur + drainGrace)
	var wg sync.WaitGroup
	for w := range p.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				s := sample{Sched: j.sched, Enq: j.enq}
				if now := int64(time.Since(t0)); now > giveUp {
					s.Start, s.Done, s.Failed = now, now, true // never sent
				} else {
					p.submitOne(w, &s, t0, traced)
				}
				out[w] = append(out[w], s)
			}
		}(w)
	}
	goBeside(&wg, at, t0)
	pace(t0, rate, total, func(sched, enq int64) { jobs <- job{sched, enq} })
	close(jobs)
	wg.Wait()
	return flatten(out)
}

// pace calls emit(scheduled, now) for submissions 0..total-1, each as soon
// as its instant start + i/rate has passed, waking every millisecond and
// catching up in a burst after an oversleep so the offered rate holds.
func pace(t0 time.Time, rate, total int, emit func(sched, enq int64)) {
	period := float64(time.Second) / float64(rate)
	for i := 0; i < total; {
		now := int64(time.Since(t0))
		for ; i < total && int64(float64(i)*period) <= now; i++ {
			emit(int64(float64(i)*period), now)
		}
		if i < total {
			time.Sleep(time.Millisecond)
		}
	}
}

// closedLoop has the first `clients` clients of the pool submit back to back
// for dur.
func (p *pool) closedLoop(clients int, dur time.Duration, at func(t0 time.Time)) []sample {
	out := make([][]sample, len(p.clients))
	t0 := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				var s sample
				p.submitOne(w, &s, t0, false)
				s.Sched, s.Enq = s.Start, s.Start
				out[w] = append(out[w], s)
			}
		}(w)
	}
	goBeside(&wg, at, t0)
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return flatten(out)
}

func flatten(per [][]sample) []sample {
	n := 0
	for _, s := range per {
		n += len(s)
	}
	all := make([]sample, 0, n)
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}
