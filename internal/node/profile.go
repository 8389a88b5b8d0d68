package node

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"fabricsharp/internal/transport"
	"fabricsharp/internal/wire"
)

// MaxProfileSeconds bounds a CPU profile request: the handler holds its
// connection for the whole sampling window.
const MaxProfileSeconds = 60

// serveProfile answers one MsgProfileReq on c, from either node role. A CPU
// profile samples for the requested seconds, or until done closes (the node
// is shutting down); runtime/pprof runs one CPU profile per process, so a
// second request while one runs gets an error answer at once.
func serveProfile(c *transport.Conn, payload []byte, done <-chan struct{}) {
	resp := &wire.Profile{}
	req, err := wire.DecodeProfileReq(payload)
	if err == nil {
		resp.Data, err = writeProfile(req, done)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	_ = c.Send(wire.MsgProfile, wire.EncodeProfile(resp))
}

func writeProfile(req wire.ProfileReq, done <-chan struct{}) ([]byte, error) {
	var buf bytes.Buffer
	switch req.Kind {
	case "cpu":
		if req.Seconds < 1 || req.Seconds > MaxProfileSeconds {
			return nil, fmt.Errorf("cpu profile: %d seconds, want 1..%d", req.Seconds, MaxProfileSeconds)
		}
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		window := time.NewTimer(time.Duration(req.Seconds) * time.Second)
		select {
		case <-window.C:
		case <-done:
			window.Stop()
		}
		pprof.StopCPUProfile()
	case "heap":
		// Collect first, so the in-use figures are the live heap now rather
		// than at the last collection (net/http/pprof's heap?gc=1).
		runtime.GC()
		fallthrough
	case "allocs", "goroutine":
		if err := pprof.Lookup(req.Kind).WriteTo(&buf, 0); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown profile kind %q (want cpu, heap, allocs or goroutine)", req.Kind)
	}
	return buf.Bytes(), nil
}

// ProfileAt fetches one profile from the node at addr — any orderer or peer.
// A CPU request's call lasts its sampling window.
func ProfileAt(addr string, req wire.ProfileReq, timeout time.Duration) ([]byte, error) {
	resp, err := askNode(addr, timeout, wire.MsgProfileReq, wire.EncodeProfileReq(req), wire.MsgProfile)
	if err != nil {
		return nil, err
	}
	p, err := wire.DecodeProfile(resp)
	if err != nil {
		return nil, fmt.Errorf("node: profile: %w", err)
	}
	if p.Err != "" {
		return nil, fmt.Errorf("node: %s refused the %s profile: %s", addr, req.Kind, p.Err)
	}
	return p.Data, nil
}
