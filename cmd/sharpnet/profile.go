package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/wire"
)

// profileFlags configures `sharpnet profile`: one runtime/pprof profile
// from one node, fetched over the node's own port and written to a file
// `go tool pprof` reads. The node refuses a kind it does not serve.
type profileFlags struct {
	Node        string
	Kind        string
	Seconds     int
	Out         string
	DialTimeout time.Duration
}

func (f profileFlags) validate() error {
	switch {
	case f.Node == "":
		return fmt.Errorf("profile requires -node")
	case f.Kind == "cpu" && (f.Seconds < 1 || f.Seconds > node.MaxProfileSeconds):
		return fmt.Errorf("profile -seconds %d: a cpu profile takes 1..%d", f.Seconds, node.MaxProfileSeconds)
	case f.Out == "":
		return fmt.Errorf("profile requires -o")
	}
	return nil
}

func cmdProfile(args []string) int {
	fs := flag.NewFlagSet("sharpnet profile", flag.ExitOnError)
	var f profileFlags
	fs.StringVar(&f.Node, "node", "", "address of the orderer or peer to profile")
	fs.StringVar(&f.Kind, "kind", "cpu", "cpu | heap | allocs | goroutine")
	fs.IntVar(&f.Seconds, "seconds", 10, "cpu profile duration")
	fs.StringVar(&f.Out, "o", "", "output file (gzipped protobuf, for go tool pprof)")
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 30*time.Second, "dial budget")
	_ = fs.Parse(args)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet profile:", err)
		return 2
	}
	data, err := node.ProfileAt(f.Node, wire.ProfileReq{Kind: f.Kind, Seconds: uint32(f.Seconds)}, f.DialTimeout)
	if err == nil {
		err = os.WriteFile(f.Out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet profile:", err)
		return 1
	}
	fmt.Printf("%s profile of %s: %d bytes in %s\n", f.Kind, f.Node, len(data), f.Out)
	return 0
}
