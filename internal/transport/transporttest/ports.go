// Package transporttest is test support for booting loopback clusters whose
// members must know each other's addresses before any of them listens (a
// Raft membership is its address list).
package transporttest

import (
	"errors"
	"net"
	"syscall"
	"testing"
)

// BootOnFreePorts picks n distinct free loopback addresses, releases them and
// calls boot, which must bind them and, when it fails, close whatever it
// started. Between the release and boot's rebind any other socket — a
// member's own outbound dial included — can be handed one of the ports; boot
// then fails with EADDRINUSE and is retried on fresh ports. Any other error,
// or five collisions in a row, fails the test.
func BootOnFreePorts(t testing.TB, n int, boot func(addrs []string) error) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		addrs := make([]string, n)
		held := make([]net.Listener, n)
		for i := range held {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			held[i], addrs[i] = l, l.Addr().String()
		}
		for _, l := range held {
			_ = l.Close()
		}
		err := boot(addrs)
		if err == nil {
			return
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			t.Fatalf("boot attempt %d: %v", attempt, err)
		}
	}
}
