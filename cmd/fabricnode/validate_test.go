package main

import (
	"strings"
	"testing"
	"time"
)

func ordererFlags() nodeFlags {
	return nodeFlags{
		Role:      "orderer",
		PeerNames: []string{"peer0", "peer1"},
		Orderers:  1,
	}
}

func raftOrdererFlags() nodeFlags {
	f := ordererFlags()
	f.RaftID = "127.0.0.1:9001"
	f.RaftCluster = []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}
	f.RaftRedirects = map[string]string{
		"127.0.0.1:9001": "127.0.0.1:7001",
		"127.0.0.1:9002": "127.0.0.1:7002",
		"127.0.0.1:9003": "127.0.0.1:7003",
	}
	f.RaftDir = "/tmp/raft"
	f.RaftElection = 150 * time.Millisecond
	return f
}

func peerFlags() nodeFlags {
	return nodeFlags{
		Role:         "peer",
		Name:         "peer0",
		OrdererAddrs: []string{"127.0.0.1:7050"},
		PeerNames:    []string{"peer0", "peer1"},
		Orderers:     1,
	}
}

func TestValidateAcceptsWellFormedConfigs(t *testing.T) {
	for name, f := range map[string]nodeFlags{
		"standalone orderer": ordererFlags(),
		"raft orderer":       raftOrdererFlags(),
		"peer":               peerFlags(),
		"peer multi-orderer": func() nodeFlags {
			f := peerFlags()
			f.OrdererAddrs = []string{"127.0.0.1:7050", "127.0.0.1:7060"}
			return f
		}(),
		"raft orderer without redirects": func() nodeFlags {
			f := raftOrdererFlags()
			f.RaftRedirects = nil
			return f
		}(),
		"orderer with workload": func() nodeFlags {
			f := ordererFlags()
			f.Workload = "token"
			return f
		}(),
		"peer with workload and accounts": func() nodeFlags {
			f := peerFlags()
			f.Workload = "analytics"
			f.Accounts = 64
			return f
		}(),
	} {
		if err := f.validate(); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	cases := map[string]struct {
		mutate  func(*nodeFlags)
		base    func() nodeFlags
		wantErr string
	}{
		"missing role": {
			base:    func() nodeFlags { f := ordererFlags(); f.Role = ""; return f },
			wantErr: "-role is required",
		},
		"unknown role": {
			base:    func() nodeFlags { f := ordererFlags(); f.Role = "auditor"; return f },
			wantErr: "unknown -role",
		},
		"no peers": {
			base:    func() nodeFlags { f := ordererFlags(); f.PeerNames = nil; return f },
			wantErr: "at least one validating peer",
		},
		"duplicate peers": {
			base:    func() nodeFlags { f := ordererFlags(); f.PeerNames = []string{"peer0", "peer0"}; return f },
			wantErr: "twice",
		},
		"orderer with peer name": {
			base:    func() nodeFlags { f := ordererFlags(); f.Name = "peer0"; return f },
			wantErr: "-name is a peer flag",
		},
		"in-process replica set": {
			base:    func() nodeFlags { f := ordererFlags(); f.Orderers = 2; return f },
			wantErr: "-raft-cluster",
		},
		"peer without name": {
			base:    func() nodeFlags { f := peerFlags(); f.Name = ""; return f },
			wantErr: "requires -name",
		},
		"peer name not in cluster list": {
			base:    func() nodeFlags { f := peerFlags(); f.Name = "peer9"; return f },
			wantErr: "does not appear in -peers",
		},
		"peer without orderer": {
			base:    func() nodeFlags { f := peerFlags(); f.OrdererAddrs = nil; return f },
			wantErr: "requires -orderer",
		},
		"peer with raft flags": {
			base:    func() nodeFlags { f := peerFlags(); f.RaftCluster = []string{"127.0.0.1:9001"}; return f },
			wantErr: "role peer does not accept them",
		},
		"raft id without cluster": {
			base:    func() nodeFlags { f := ordererFlags(); f.RaftID = "127.0.0.1:9001"; return f },
			wantErr: "without -raft-cluster",
		},
		"raft dir without cluster": {
			base:    func() nodeFlags { f := ordererFlags(); f.RaftDir = "/tmp/raft"; return f },
			wantErr: "without -raft-cluster",
		},
		"raft election without cluster": {
			base:    func() nodeFlags { f := ordererFlags(); f.RaftElection = time.Second; return f },
			wantErr: "without -raft-cluster",
		},
		"redirects without cluster": {
			base: func() nodeFlags {
				f := ordererFlags()
				f.RaftRedirects = map[string]string{"a": "b"}
				return f
			},
			wantErr: "without -raft-cluster",
		},
		"cluster without id": {
			base:    func() nodeFlags { f := raftOrdererFlags(); f.RaftID = ""; return f },
			wantErr: "requires -raft-id",
		},
		"id not in cluster": {
			base:    func() nodeFlags { f := raftOrdererFlags(); f.RaftID = "127.0.0.1:9999"; return f },
			wantErr: "does not appear in -raft-cluster",
		},
		"duplicate cluster member": {
			base: func() nodeFlags {
				f := raftOrdererFlags()
				f.RaftCluster = []string{"127.0.0.1:9001", "127.0.0.1:9001"}
				f.RaftRedirects = nil
				return f
			},
			wantErr: "twice",
		},
		"single-member cluster": {
			base: func() nodeFlags {
				f := raftOrdererFlags()
				f.RaftCluster = []string{"127.0.0.1:9001"}
				f.RaftRedirects = nil
				return f
			},
			wantErr: "at least two members",
		},
		"redirect for unknown member": {
			base: func() nodeFlags {
				f := raftOrdererFlags()
				f.RaftRedirects["127.0.0.1:9999"] = "127.0.0.1:7999"
				return f
			},
			wantErr: "not in -raft-cluster",
		},
		"redirects omit self": {
			base: func() nodeFlags {
				f := raftOrdererFlags()
				delete(f.RaftRedirects, f.RaftID)
				return f
			},
			wantErr: "omits the local member",
		},
		"unknown workload": {
			base:    func() nodeFlags { f := ordererFlags(); f.Workload = "nosuch"; return f },
			wantErr: "unknown -workload",
		},
		"accounts without workload": {
			base:    func() nodeFlags { f := peerFlags(); f.Accounts = 64; return f },
			wantErr: "requires -workload",
		},
		"negative accounts": {
			base:    func() nodeFlags { f := ordererFlags(); f.Workload = "token"; f.Accounts = -1; return f },
			wantErr: "non-negative",
		},
	}
	for name, c := range cases {
		f := c.base()
		if c.mutate != nil {
			c.mutate(&f)
		}
		err := f.validate()
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not contain %q", name, err, c.wantErr)
		}
	}
}

func TestParseRedirects(t *testing.T) {
	got, err := parseRedirects("a=1,b=2")
	if err != nil || len(got) != 2 || got["a"] != "1" || got["b"] != "2" {
		t.Fatalf("parseRedirects = %v, %v", got, err)
	}
	if got, err := parseRedirects(""); err != nil || got != nil {
		t.Fatalf("empty input should yield nil map, got %v, %v", got, err)
	}
	for _, bad := range []string{"a", "a=", "=1", "a=1,b"} {
		if _, err := parseRedirects(bad); err == nil {
			t.Errorf("parseRedirects(%q): want error", bad)
		}
	}
}
