package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces jittered exponential delays: each Next doubles the base
// delay up to Max and draws uniformly from [d/2, d] ("equal jitter"), so a
// fleet of clients that lost the same orderer at the same instant does not
// reconnect in lockstep. The zero value is not ready — use NewBackoff.
//
// Transport timing is the one place the repository tolerates wall-clock
// seeded randomness: retry spacing affects only liveness, never the bytes a
// replica seals, so determinism is not load-bearing here (the harness-side
// no-global-math/rand rule is about reproducible workloads).
type Backoff struct {
	base time.Duration
	max  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
	cur time.Duration
}

// NewBackoff builds a backoff ramp from base to max. A non-zero seed makes
// the jitter sequence reproducible (tests); seed 0 derives one from the
// clock.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed)), cur: base}
}

// Next returns the next delay and advances the ramp.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.cur
	if b.cur *= 2; b.cur > b.max {
		b.cur = b.max
	}
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset rewinds the ramp to the base delay (call after a success).
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.cur = b.base
	b.mu.Unlock()
}

// Retry runs fn until it returns nil or deadline passes, in which case the
// last error is returned. It is the first-contact loop — a dial or a status
// probe of a node that may still be starting, or be mid-restart (answering
// the dial but resetting in-flight calls) — and paces itself by how long it
// has been trying rather than by how often: the pause before the next
// attempt is an eighth of the time spent so far, never under 10 ms or over
// firstContactMax, drawn from its upper half. A node that becomes reachable
// at T is therefore seen by about T + max(10 ms, T/8) — a doubling ramp
// overshoots by up to T, which quantised every cluster start-up into the
// ramp's steps — while a long outage still costs two probes a second.
func Retry(deadline time.Time, fn func() error) error {
	start := time.Now()
	for {
		err := fn()
		if err == nil {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return err
		}
		d := min(max(time.Since(start)/8, 10*time.Millisecond), firstContactMax)
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		time.Sleep(min(d, remaining))
	}
}

// firstContactMax caps Retry's pause: a fleet chasing a dead address probes
// it about twice a second each, as before.
const firstContactMax = 500 * time.Millisecond
