package wire

import (
	"reflect"
	"testing"

	"fabricsharp/internal/trace"
)

func TestTraceDumpRoundTrip(t *testing.T) {
	dump := trace.Dump{
		Node:     "peer0",
		Role:     "peer",
		Recorded: 123456,
		Events: []trace.Event{
			{TxID: "load3-000042", Stage: 1, Block: 0, WallNS: 1700000000000000001, Seq: 1},
			{TxID: "load3-000042", Stage: 7, Block: 12, WallNS: 1700000000000500001, Seq: 999},
			{TxID: "", Stage: 8, Block: 12, WallNS: -1, Seq: 1000}, // negative stamp survives
		},
	}
	got, err := DecodeTraceDump(EncodeTraceDump(dump))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dump) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, dump)
	}
	if string(EncodeTraceDump(got)) != string(EncodeTraceDump(dump)) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestTraceDumpEmptyRoundTrip(t *testing.T) {
	dump := trace.Dump{Node: "ord0", Role: "orderer"}
	got, err := DecodeTraceDump(EncodeTraceDump(dump))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dump) {
		t.Fatalf("empty dump mismatch: %+v != %+v", got, dump)
	}
}

func TestTraceReqRoundTrip(t *testing.T) {
	if _, err := DecodeTraceReq(EncodeTraceReq(TraceReq{})); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTraceReq([]byte{0}); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestTraceDumpDecodeBoundsHostileCount(t *testing.T) {
	enc := EncodeTraceDump(trace.Dump{Node: "n", Role: "peer", Events: []trace.Event{{TxID: "x", Stage: 1}}})
	// Blow the event count up far past the remaining bytes: the decoder must
	// fail cleanly rather than allocate.
	countOff := 4 + 1 + 4 + 4 + 8 // "n" + "peer" + recorded
	enc[countOff] = 0xff
	if _, err := DecodeTraceDump(enc); err == nil {
		t.Fatal("hostile count must be rejected")
	}
	// Truncation mid-event fails too.
	good := EncodeTraceDump(trace.Dump{Node: "n", Role: "peer", Events: []trace.Event{{TxID: "x", Stage: 1}}})
	if _, err := DecodeTraceDump(good[:len(good)-3]); err == nil {
		t.Fatal("truncated dump must be rejected")
	}
}
