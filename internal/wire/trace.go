package wire

import (
	"fmt"

	"fabricsharp/internal/codec"
	"fabricsharp/internal/trace"
)

// Trace messages drain a node's always-on stage-tracing ring (see
// internal/trace) over the wire. They are purely additive message types —
// the frame Version stays unchanged; nodes that predate them fail loudly at
// dispatch, which is the versioning contract for new types.

// TraceReq asks a node to drain its tracing ring. It has no parameters —
// the payload exists so the message still round-trips canonically.
type TraceReq struct{}

// EncodeTraceReq renders a TraceReq canonically (empty payload).
func EncodeTraceReq(TraceReq) []byte { return nil }

// DecodeTraceReq decodes a TraceReq.
func DecodeTraceReq(b []byte) (TraceReq, error) {
	d := codec.NewDecoder(b)
	if err := d.Finish(); err != nil {
		return TraceReq{}, fmt.Errorf("trace-req: %w", err)
	}
	return TraceReq{}, nil
}

// traceEventEncodedMin is the minimum encoded size of one trace.Event:
// u32 TxID length + u8 stage + u64 block + u64 wall + u64 seq.
const traceEventEncodedMin = 4 + 1 + 8 + 8 + 8

// EncodeTraceDump renders t, the answer to a TraceReq, canonically.
func EncodeTraceDump(t trace.Dump) []byte {
	dst := codec.AppendString(nil, t.Node)
	dst = codec.AppendString(dst, t.Role)
	dst = codec.AppendU64(dst, t.Recorded)
	dst = codec.AppendU32(dst, uint32(len(t.Events)))
	for _, ev := range t.Events {
		dst = codec.AppendString(dst, ev.TxID)
		dst = codec.AppendU8(dst, uint8(ev.Stage))
		dst = codec.AppendU64(dst, ev.Block)
		dst = codec.AppendU64(dst, uint64(ev.WallNS))
		dst = codec.AppendU64(dst, ev.Seq)
	}
	return dst
}

// DecodeTraceDump decodes a drained ring.
func DecodeTraceDump(b []byte) (trace.Dump, error) {
	d := codec.NewDecoder(b)
	t := trace.Dump{
		Node:     d.String(),
		Role:     d.String(),
		Recorded: d.U64(),
	}
	if n := d.Count(traceEventEncodedMin); n > 0 {
		t.Events = make([]trace.Event, n)
		for i := range t.Events {
			t.Events[i] = trace.Event{
				TxID:   d.String(),
				Stage:  trace.Stage(d.U8()),
				Block:  d.U64(),
				WallNS: int64(d.U64()),
				Seq:    d.U64(),
			}
		}
	}
	if err := d.Finish(); err != nil {
		return trace.Dump{}, fmt.Errorf("trace-dump: %w", err)
	}
	return t, nil
}
