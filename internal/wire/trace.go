package wire

import (
	"fmt"

	"fabricsharp/internal/codec"
)

// Trace messages drain a node's always-on stage-tracing ring (see
// internal/trace) over the wire. They are purely additive message types —
// the frame Version stays unchanged; nodes that predate them fail loudly at
// dispatch, which is the versioning contract for new types.

// TraceEvent mirrors trace.Event for the wire: one recorded stage timestamp.
// wire does not import internal/trace (the codec stays leaf-level); the node
// layer converts between the two shapes.
type TraceEvent struct {
	TxID   string
	Stage  uint8
	Block  uint64
	WallNS int64
	Seq    uint64
}

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

// TraceDump answers TraceReq: one node's drained ring, oldest event first.
type TraceDump struct {
	// Node and Role identify the origin node.
	Node string
	Role string
	// Recorded is the ring's lifetime event count; Recorded - len(Events)
	// events were lost to wraparound.
	Recorded uint64
	Events   []TraceEvent
}

// traceEventEncodedMin is the minimum encoded size of one TraceEvent:
// u32 TxID length + u8 stage + u64 block + u64 wall + u64 seq.
const traceEventEncodedMin = 4 + 1 + 8 + 8 + 8

// EncodeTraceDump renders t canonically.
func EncodeTraceDump(t *TraceDump) []byte {
	dst := codec.AppendString(nil, t.Node)
	dst = codec.AppendString(dst, t.Role)
	dst = codec.AppendU64(dst, t.Recorded)
	dst = codec.AppendU32(dst, uint32(len(t.Events)))
	for _, ev := range t.Events {
		dst = codec.AppendString(dst, ev.TxID)
		dst = codec.AppendU8(dst, ev.Stage)
		dst = codec.AppendU64(dst, ev.Block)
		dst = codec.AppendU64(dst, uint64(ev.WallNS))
		dst = codec.AppendU64(dst, ev.Seq)
	}
	return dst
}

// DecodeTraceDump decodes a TraceDump.
func DecodeTraceDump(b []byte) (*TraceDump, error) {
	d := codec.NewDecoder(b)
	t := &TraceDump{
		Node:     d.String(),
		Role:     d.String(),
		Recorded: d.U64(),
	}
	if n := d.Count(traceEventEncodedMin); n > 0 {
		t.Events = make([]TraceEvent, n)
		for i := range t.Events {
			t.Events[i] = TraceEvent{
				TxID:   d.String(),
				Stage:  d.U8(),
				Block:  d.U64(),
				WallNS: int64(d.U64()),
				Seq:    d.U64(),
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("trace-dump: %w", err)
	}
	return t, nil
}
