// Package transport is the lockacross fixture corpus: blocking
// communication (channel sends, module Submit, socket writes) under a held
// sync.Mutex/RWMutex.
package transport

import (
	"net"
	"sync"
)

// Conn mimics the real transport connection: Send is a socket write on a
// module type, so calling it under a lock is the policed shape.
type Conn struct {
	nc net.Conn
}

func (c *Conn) Send(b []byte) error {
	_, err := c.nc.Write(b)
	return err
}

// Cluster mimics the consensus handle: Submit blocks until commit.
type Cluster struct{}

func (c *Cluster) Submit(b []byte) error { return nil }

type worker struct {
	mu   sync.Mutex
	rmu  sync.RWMutex
	out  chan int
	conn *Conn
}

func (w *worker) flagSendUnderLock(v int) {
	w.mu.Lock()
	w.out <- v // want lockacross "channel send while w.mu is held"
	w.mu.Unlock()
}

func (w *worker) okSendAfterUnlock(v int) {
	w.mu.Lock()
	w.mu.Unlock()
	w.out <- v
}

func (w *worker) flagSocketWriteUnderDeferredUnlock(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn.Send(b) // want lockacross "Send (socket write) while w.mu is held"
}

func (w *worker) flagRawNetWrite(b []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.nc.Write(b) // want lockacross "Write (socket write) while w.mu is held"
}

func (w *worker) flagSubmitUnderRLock(c *Cluster, b []byte) error {
	w.rmu.RLock()
	defer w.rmu.RUnlock()
	return c.Submit(b) // want lockacross "Submit (commit-wait) while w.rmu is held"
}

func (w *worker) okNonBlockingSend(v int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case w.out <- v: // a default clause makes the send non-blocking
	default:
	}
}

func (w *worker) okGoroutineOwnStack(v int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	go func() {
		w.out <- v // runs on its own stack, without our locks
	}()
}

func (w *worker) okSendOutsideCriticalSection(v int) {
	w.mu.Lock()
	staged := v * 2
	w.mu.Unlock()
	w.out <- staged
}

func (w *worker) suppressedCallPairing(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	//sharp:allow lockacross fixture: reviewed suppression — serialization is this lock's purpose
	return w.conn.Send(b) // wantsup lockacross "Send (socket write)"
}

// An Unlock on a branch that returns releases nothing after the if: the
// lock taken at the loop's top is still held at the send.
func (w *worker) flagSendAfterEarlyReturnUnlock(next func() (int, error)) {
	for {
		w.mu.Lock()
		v, err := next()
		if err != nil {
			w.mu.Unlock()
			return
		}
		w.out <- v // want lockacross "channel send while w.mu is held"
		w.mu.Unlock()
	}
}

func (w *worker) okUnlockAfterEarlyReturnBeforeSend(next func() (int, error)) {
	for {
		w.mu.Lock()
		v, err := next()
		if err != nil {
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		w.out <- v
	}
}
