package node

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"fabricsharp/internal/sched"
	"fabricsharp/internal/wire"
)

// profileFields decodes a gzipped profile and walks it as one protobuf
// message, counting each top-level field number; it fails on anything that
// is not a well-formed message. profile.proto puts the sample types in field
// 1, the samples in 2 and the string table in 6.
func profileFields(data []byte) (map[uint64]int, []byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	fields := map[uint64]int{}
	for b := raw; len(b) > 0; {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("bad field key at offset %d", len(raw)-len(b))
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, nil, fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, nil, fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, nil, fmt.Errorf("bad length")
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, nil, fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return nil, nil, fmt.Errorf("wire type %d", key&7)
		}
		fields[key>>3]++
	}
	return fields, raw, nil
}

// TestProfileOverTheWire fetches every kind from an in-process orderer and
// peer. Each answer must be a gzip stream holding a well-formed profile with
// sample types and a string table naming the kind's unit, and the goroutine
// profile must carry the labels the run loop and the committer set.
func TestProfileOverTheWire(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 1)
	for _, addr := range []string{ord.Addr(), peers[0].Addr()} {
		for _, tc := range []struct {
			req  wire.ProfileReq
			want []string
		}{
			{wire.ProfileReq{Kind: "cpu", Seconds: 1}, []string{"cpu", "nanoseconds"}},
			{wire.ProfileReq{Kind: "heap"}, []string{"inuse_space"}},
			{wire.ProfileReq{Kind: "allocs"}, []string{"alloc_space"}},
			{wire.ProfileReq{Kind: "goroutine"}, []string{"orderer.run", "committer", "peer0"}},
		} {
			data, err := ProfileAt(addr, tc.req, dialTimeout)
			if err != nil {
				t.Fatalf("%s %s: %v", addr, tc.req.Kind, err)
			}
			fields, raw, err := profileFields(data)
			if err != nil {
				t.Fatalf("%s %s profile does not parse: %v", addr, tc.req.Kind, err)
			}
			if fields[1] == 0 || fields[6] == 0 {
				t.Fatalf("%s %s profile has %d sample types and %d strings", addr, tc.req.Kind, fields[1], fields[6])
			}
			for _, s := range tc.want {
				if !bytes.Contains(raw, []byte(s)) {
					t.Errorf("%s %s profile names no %q", addr, tc.req.Kind, s)
				}
			}
		}
	}
	if _, err := ProfileAt(ord.Addr(), wire.ProfileReq{Kind: "block"}, dialTimeout); err == nil || !strings.Contains(err.Error(), "unknown profile kind") {
		t.Errorf("unknown kind: err %v", err)
	}
	if _, err := ProfileAt(ord.Addr(), wire.ProfileReq{Kind: "cpu", Seconds: MaxProfileSeconds + 1}, dialTimeout); err == nil {
		t.Error("a cpu profile over the bound was taken")
	}
}

// TestSecondCPUProfileIsRefused sends two CPU requests at once. The process
// has one CPU profiler, so one request samples for its window and the other
// must be answered with an error at once — before the first one ends — not
// queued behind it or left hanging.
func TestSecondCPUProfileIsRefused(t *testing.T) {
	ord, peers := bootCluster(t, sched.SystemSharp, 1)
	errs := make(chan error, 2)
	for _, addr := range []string{ord.Addr(), peers[0].Addr()} {
		go func(addr string) {
			_, err := ProfileAt(addr, wire.ProfileReq{Kind: "cpu", Seconds: 2}, dialTimeout)
			errs <- err
		}(addr)
	}
	if err := <-errs; err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("first answer: err %v, want the refusal of the second profile", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("the profile that started: %v", err)
	}
}
