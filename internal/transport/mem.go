package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// memPrefix marks an in-memory address. Listen and Dial serve "mem:NAME"
// over stdlib net.Pipe through a process-wide registry of names instead of
// TCP, so a whole cluster — the library network, a test's Raft membership —
// runs the same frames in one process without binding a port. "mem:" alone
// asks Listen for a fresh name, as port 0 does.
const memPrefix = "mem:"

// mem is the registry: a name is bound by one listener until it closes.
var mem = struct {
	sync.Mutex
	names map[string]*memListener
	fresh uint64
}{names: map[string]*memListener{}}

// memListener is a net.Listener whose connections are the far ends of the
// pipes Dial creates.
type memListener struct {
	name  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// listen binds addr: a TCP address, or a name in the registry.
func listen(addr string) (net.Listener, error) {
	if !strings.HasPrefix(addr, memPrefix) {
		return net.Listen("tcp", addr)
	}
	mem.Lock()
	defer mem.Unlock()
	for fresh := addr == memPrefix; fresh; _, fresh = mem.names[addr] {
		mem.fresh++
		addr = fmt.Sprintf("%s%d", memPrefix, mem.fresh)
	}
	if _, taken := mem.names[addr]; taken {
		return nil, errors.New("name already bound")
	}
	l := &memListener{name: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	mem.names[addr] = l
	return l, nil
}

// dial connects to addr: over TCP, or through a pipe to the listener bound to
// the name.
func dial(addr string) (net.Conn, error) {
	if !strings.HasPrefix(addr, memPrefix) {
		return net.DialTimeout("tcp", addr, DialTimeout)
	}
	mem.Lock()
	l := mem.names[addr]
	mem.Unlock()
	if l == nil {
		return nil, errors.New("no listener on that name")
	}
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close frees the name.
func (l *memListener) Close() error {
	l.once.Do(func() {
		mem.Lock()
		delete(mem.names, string(l.name))
		mem.Unlock()
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.name }

// memAddr is an in-memory address; its String is what Dial takes.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
