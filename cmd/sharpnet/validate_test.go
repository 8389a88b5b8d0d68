package main

import (
	"strings"
	"testing"
	"time"
)

// validator lets the table below mix the per-command flag structs: each
// subcommand owns its shape, all expose the same testable validate().
type validator interface{ validate() error }

func TestValidateAcceptsWellFormedCommands(t *testing.T) {
	cluster := []string{"127.0.0.1:7050"}
	peers := []string{"127.0.0.1:7051", "127.0.0.1:7052"}
	for name, f := range map[string]validator{
		"demo":            demoFlags{Clients: 4, Txs: 200, Hot: 8},
		"load open loop":  loadFlags{Orderers: cluster, Peers: peers, TargetTPS: 500, Duration: 10 * time.Second},
		"load open pool":  loadFlags{Orderers: cluster, Peers: peers, TargetTPS: 500, Duration: time.Second, Workload: "token", Accounts: 100000},
		"status both":     statusFlags{Orderers: cluster, Peers: peers},
		"status orderers": statusFlags{Orderers: cluster},
		"check":           checkFlags{Orderers: cluster, Peers: peers, ExpectCommitted: 500, ConvergeTimeout: time.Minute},
		"check no tally":  checkFlags{Orderers: cluster, Peers: peers, ConvergeTimeout: time.Minute},
		"trace":           traceFlags{Orderers: cluster, Peers: peers},
		"trace peers":     traceFlags{Peers: peers},
		"profile cpu":     profileFlags{Node: cluster[0], Kind: "cpu", Seconds: 10, Out: "cpu.pb.gz"},
		"profile heap":    profileFlags{Node: peers[0], Kind: "heap", Out: "heap.pb.gz"},
	} {
		if err := f.validate(); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateRejectsMisuse(t *testing.T) {
	cluster := []string{"127.0.0.1:7050"}
	peers := []string{"127.0.0.1:7051"}
	cases := map[string]struct {
		flags   validator
		wantErr string
	}{
		"demo zero clients":     {demoFlags{Txs: 1, Hot: 1}, "-clients must be positive"},
		"demo zero txs":         {demoFlags{Clients: 1, Hot: 1}, "-txs must be positive"},
		"demo zero hot":         {demoFlags{Clients: 1, Txs: 1}, "-hot must be positive"},
		"load without orderers": {loadFlags{Peers: peers, TargetTPS: 100, Duration: time.Second}, "requires -orderer"},
		"load without peers":    {loadFlags{Orderers: cluster, TargetTPS: 100, Duration: time.Second}, "requires -orderer and -peer-addrs"},
		"load without rate":     {loadFlags{Orderers: cluster, Peers: peers, Duration: time.Second}, "requires -target-tps"},
		"load no duration":      {loadFlags{Orderers: cluster, Peers: peers, TargetTPS: 100}, "positive duration"},
		"load unknown workload": {loadFlags{Orderers: cluster, Peers: peers, TargetTPS: 100, Duration: time.Second, Workload: "nosuch"}, "unknown workload"},
		"load negative pool":    {loadFlags{Orderers: cluster, Peers: peers, TargetTPS: 100, Duration: time.Second, Workload: "token", Accounts: -1}, "non-negative"},
		"status no targets":     {statusFlags{}, "needs -orderer and/or -peer-addrs"},
		"check without peer":    {checkFlags{Orderers: cluster, ConvergeTimeout: time.Minute}, "requires -orderer and -peer-addrs"},
		"check zero timeout":    {checkFlags{Orderers: cluster, Peers: peers}, "-converge-timeout must be positive"},
		"trace no targets":      {traceFlags{}, "needs -orderer and/or -peer-addrs"},
		"profile no node":       {profileFlags{Kind: "heap", Out: "h"}, "requires -node"},
		"profile long cpu":      {profileFlags{Node: cluster[0], Kind: "cpu", Seconds: 61, Out: "c"}, "1..60"},
		"profile no output":     {profileFlags{Node: cluster[0], Kind: "goroutine"}, "requires -o"},
	}
	for name, c := range cases {
		err := c.flags.validate()
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not contain %q", name, err, c.wantErr)
		}
	}
}
