package node

import (
	"fmt"
	"time"

	"fabricsharp/internal/trace"
	"fabricsharp/internal/wire"
)

// TraceAt drains one node's stage-tracing ring — any orderer or peer
// address — without the Client's failover machinery.
func TraceAt(addr string, timeout time.Duration) (trace.Dump, error) {
	resp, err := askNode(addr, timeout, wire.MsgTraceReq, wire.EncodeTraceReq(wire.TraceReq{}), wire.MsgTraceDump)
	if err != nil {
		return trace.Dump{}, err
	}
	dump, err := wire.DecodeTraceDump(resp)
	if err != nil {
		return trace.Dump{}, fmt.Errorf("node: trace: %w", err)
	}
	return dump, nil
}

// FetchTimelines drains every named node's ring and joins the per-node
// events by TxID into end-to-end timelines — the client side of the
// observability loop behind `sharpnet trace` and `sharpnet load`. Each
// address gets its own dial budget; the first failure aborts (a partial
// merge would silently understate stage coverage).
func FetchTimelines(addrs []string, timeout time.Duration) ([]trace.Timeline, []trace.Dump, error) {
	dumps := make([]trace.Dump, 0, len(addrs))
	for _, addr := range addrs {
		d, err := TraceAt(addr, timeout)
		if err != nil {
			return nil, nil, fmt.Errorf("node: fetch timelines from %s: %w", addr, err)
		}
		dumps = append(dumps, d)
	}
	return trace.Merge(dumps), dumps, nil
}
