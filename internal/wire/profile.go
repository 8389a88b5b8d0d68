package wire

import (
	"fmt"

	"fabricsharp/internal/codec"
)

// Profile messages fetch a runtime/pprof profile from a running node over
// its own port. Like the trace messages they are additive types: the frame
// Version stays unchanged.

// ProfileReq asks a node for one profile. Kind is "cpu", "heap", "allocs" or
// "goroutine"; Seconds is how long a CPU profile samples and is ignored by
// the other kinds.
type ProfileReq struct {
	Kind    string
	Seconds uint32
}

// EncodeProfileReq renders r canonically.
func EncodeProfileReq(r ProfileReq) []byte {
	return codec.AppendU32(codec.AppendString(nil, r.Kind), r.Seconds)
}

// DecodeProfileReq decodes a ProfileReq.
func DecodeProfileReq(b []byte) (ProfileReq, error) {
	d := codec.NewDecoder(b)
	r := ProfileReq{Kind: d.String(), Seconds: d.U32()}
	if err := d.Finish(); err != nil {
		return ProfileReq{}, fmt.Errorf("profile-req: %w", err)
	}
	return r, nil
}

// Profile answers ProfileReq: Data holds the profile as runtime/pprof writes
// it (gzip-compressed protobuf, what `go tool pprof` reads), or Err says why
// the node refused.
type Profile struct {
	Err  string
	Data []byte
}

// EncodeProfile renders p canonically.
func EncodeProfile(p *Profile) []byte {
	return codec.AppendBytes(codec.AppendString(nil, p.Err), p.Data)
}

// DecodeProfile decodes a Profile.
func DecodeProfile(b []byte) (*Profile, error) {
	d := codec.NewDecoder(b)
	p := &Profile{Err: d.String(), Data: d.Bytes()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}
