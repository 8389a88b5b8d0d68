package main

import (
	"fmt"
	"strings"
	"time"

	"fabricsharp/internal/scenario"
)

// nodeFlags is the cross-validated subset of fabricnode's flags. Validation
// runs before any socket is opened or directory created: a half-configured
// node that joins a cluster and then stalls (an orderer with a raft cluster
// but no identity, a redirect map that cannot name the local member, a peer
// whose name no other node has in its -peers list) is strictly worse than
// one that refuses to start with a precise complaint.
type nodeFlags struct {
	Role          string
	Name          string
	OrdererAddrs  []string
	PeerNames     []string
	RaftID        string
	RaftCluster   []string
	RaftRedirects map[string]string
	RaftDir       string
	RaftElection  time.Duration
	Workload      string
	Accounts      int
	Orderers      int
}

func (f nodeFlags) validate() error {
	if len(f.PeerNames) == 0 {
		return fmt.Errorf("-peers must name at least one validating peer")
	}
	if dup := firstDuplicate(f.PeerNames); dup != "" {
		return fmt.Errorf("-peers lists %q twice", dup)
	}
	if f.Orderers != 1 {
		return fmt.Errorf("-orderers %d: a node runs one ordering state machine; replicate the ordering service with -raft-cluster (the flag survives, as 1, for the benchmark harness only)", f.Orderers)
	}
	if f.Workload == "" {
		if f.Accounts != 0 {
			return fmt.Errorf("-accounts tunes a scenario's genesis; it requires -workload")
		}
	} else {
		if _, ok := scenario.Get(f.Workload); !ok {
			return fmt.Errorf("unknown -workload %q (have %s)", f.Workload, strings.Join(scenario.Names(), ", "))
		}
		if f.Accounts < 0 {
			return fmt.Errorf("-accounts must be non-negative, got %d", f.Accounts)
		}
	}
	switch f.Role {
	case "orderer":
		if f.Name != "" {
			return fmt.Errorf("-name is a peer flag; the ordering role has no peer identity")
		}
		if len(f.OrdererAddrs) != 0 {
			return fmt.Errorf("-orderer is a peer flag (the address peers subscribe to); an orderer only listens")
		}
		return f.validateRaft()
	case "peer":
		if f.Name == "" {
			return fmt.Errorf("role peer requires -name")
		}
		if !contains(f.PeerNames, f.Name) {
			return fmt.Errorf("-name %q does not appear in -peers %s; every node must agree on the cluster-wide peer list",
				f.Name, strings.Join(f.PeerNames, ","))
		}
		if len(f.OrdererAddrs) == 0 {
			return fmt.Errorf("role peer requires -orderer")
		}
		if f.RaftID != "" || len(f.RaftCluster) != 0 || len(f.RaftRedirects) != 0 ||
			f.RaftDir != "" || f.RaftElection != 0 {
			return fmt.Errorf("raft flags configure the ordering service; role peer does not accept them")
		}
		return nil
	case "":
		return fmt.Errorf("-role is required (orderer | peer)")
	default:
		return fmt.Errorf("unknown -role %q (want orderer or peer)", f.Role)
	}
}

// validateRaft enforces the all-or-nothing raft flag set: a standalone
// orderer carries none of them; a cluster member carries a cluster list
// that includes its own -raft-id, and redirect hints (when given) that
// cover every member including itself.
func (f nodeFlags) validateRaft() error {
	if len(f.RaftCluster) == 0 {
		switch {
		case f.RaftID != "":
			return fmt.Errorf("-raft-id %q without -raft-cluster: a standalone orderer has no raft identity", f.RaftID)
		case len(f.RaftRedirects) != 0:
			return fmt.Errorf("-raft-redirects without -raft-cluster: nothing to redirect between")
		case f.RaftDir != "":
			return fmt.Errorf("-raft-dir without -raft-cluster: a standalone orderer persists no raft state")
		case f.RaftElection != 0:
			return fmt.Errorf("-raft-election-timeout without -raft-cluster: no elections without a cluster")
		}
		return nil
	}
	if f.RaftID == "" {
		return fmt.Errorf("-raft-cluster requires -raft-id: the member must know which cluster address is its own")
	}
	if dup := firstDuplicate(f.RaftCluster); dup != "" {
		return fmt.Errorf("-raft-cluster lists %q twice", dup)
	}
	if !contains(f.RaftCluster, f.RaftID) {
		return fmt.Errorf("-raft-id %q does not appear in -raft-cluster %s",
			f.RaftID, strings.Join(f.RaftCluster, ","))
	}
	if len(f.RaftCluster) < 2 {
		return fmt.Errorf("-raft-cluster needs at least two members (a single member is a standalone orderer; drop the raft flags)")
	}
	for raftAddr := range f.RaftRedirects {
		if !contains(f.RaftCluster, raftAddr) {
			return fmt.Errorf("-raft-redirects names %q, which is not in -raft-cluster", raftAddr)
		}
	}
	if len(f.RaftRedirects) != 0 {
		if _, ok := f.RaftRedirects[f.RaftID]; !ok {
			return fmt.Errorf("-raft-redirects omits the local member %q: peers of a remote leader could never be redirected here", f.RaftID)
		}
	}
	return nil
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func firstDuplicate(xs []string) string {
	seen := make(map[string]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x
		}
		seen[x] = true
	}
	return ""
}
