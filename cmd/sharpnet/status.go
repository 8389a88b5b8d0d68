package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/wire"
)

// statusFlags configures `sharpnet status`: one probe per listed member.
type statusFlags struct {
	Orderers    []string
	Peers       []string
	DialTimeout time.Duration
}

func (f statusFlags) validate() error {
	if len(f.Orderers) == 0 && len(f.Peers) == 0 {
		return fmt.Errorf("status needs -orderer and/or -peer-addrs to probe")
	}
	return nil
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("sharpnet status", flag.ExitOnError)
	var f statusFlags
	var orderers, peers string
	fs.StringVar(&orderers, "orderer", "", "comma-separated orderer addresses")
	fs.StringVar(&peers, "peer-addrs", "", "comma-separated peer addresses")
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 30*time.Second, "per-member probe budget")
	_ = fs.Parse(args)
	f.Orderers, f.Peers = splitAddrs(orderers), splitAddrs(peers)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet status:", err)
		return 2
	}
	statusMode(f.Orderers, f.Peers, f.DialTimeout)
	return 0
}

// statusMode prints one line per reachable cluster member; unreachable
// members are reported but not fatal (the chaos smoke probes mid-kill).
// Probes ride StatusAtRetry, so a member whose listener is up but whose
// pipeline is still restarting reads as live, not down.
func statusMode(orderers, peers []string, dialTimeout time.Duration) {
	for _, addr := range orderers {
		st, err := node.StatusAtRetry(addr, time.Now().Add(dialTimeout))
		if err != nil {
			fmt.Printf("orderer %s down (%v)\n", addr, err)
			continue
		}
		fmt.Printf("orderer %s name=%s term=%d leader=%s blocks=%d committed=%d tip=%x\n",
			addr, st.Name, st.Term, st.Leader, st.Blocks, st.CommittedTx, st.TipHash)
	}
	for _, addr := range peers {
		st, err := node.StatusAtRetry(addr, time.Now().Add(dialTimeout))
		if err != nil {
			fmt.Printf("peer %s down (%v)\n", addr, err)
			continue
		}
		fmt.Printf("peer %s name=%s blocks=%d committed=%d tip=%x state=%s\n",
			addr, st.Name, st.Blocks, st.CommittedTx, st.TipHash, st.StateHash)
	}
}

// checkFlags configures `sharpnet check`: the cluster-agreement assertion.
type checkFlags struct {
	Orderers        []string
	Peers           []string
	ExpectCommitted uint64
	ConvergeTimeout time.Duration
}

func (f checkFlags) validate() error {
	if len(f.Orderers) == 0 || len(f.Peers) == 0 {
		return fmt.Errorf("check requires -orderer and -peer-addrs")
	}
	if f.ConvergeTimeout <= 0 {
		return fmt.Errorf("-converge-timeout must be positive, got %s", f.ConvergeTimeout)
	}
	return nil
}

func cmdCheck(args []string) int {
	fs := flag.NewFlagSet("sharpnet check", flag.ExitOnError)
	var f checkFlags
	var orderers, peers string
	fs.StringVar(&orderers, "orderer", "", "comma-separated orderer addresses")
	fs.StringVar(&peers, "peer-addrs", "", "comma-separated peer addresses")
	fs.Uint64Var(&f.ExpectCommitted, "expect-committed", 0, "minimum committed-transaction tally the ledger must hold")
	fs.DurationVar(&f.ConvergeTimeout, "converge-timeout", 60*time.Second, "how long to wait for the cluster to agree")
	_ = fs.Parse(args)
	f.Orderers, f.Peers = splitAddrs(orderers), splitAddrs(peers)
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sharpnet check:", err)
		return 2
	}
	if why := awaitAgreement(f.Orderers, f.Peers, f.ExpectCommitted, f.ConvergeTimeout); why != "" {
		fmt.Fprintf(os.Stderr, "CHECK FAILED after %v: %s\n", f.ConvergeTimeout, why)
		return 1
	}
	fmt.Println("CHECK OK: survivors agree bit for bit and no committed transaction was lost")
	return 0
}

// awaitAgreement polls agreementProbe until it holds or timeout passes,
// returning "" on success and the last failure reason otherwise.
func awaitAgreement(orderers, peers []string, expectCommitted uint64, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for {
		why := agreementProbe(orderers, peers, expectCommitted, 2*time.Second)
		if why == "" {
			return ""
		}
		if time.Now().After(deadline) {
			return why
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// agreementProbe takes one cluster snapshot and returns "" when the
// agreement invariants hold, else a reason to keep waiting. Every live
// orderer (a freshly restarted replica may still be catching up the
// replicated log) and every peer must agree bit for bit; unreachable
// orderers are skipped — the chaos smoke runs this with a member killed —
// but at least one must answer. Probes use StatusAtRetry so a member
// mid-restart is retried within the probe budget rather than misread as
// down or failing the probe outright.
func agreementProbe(orderers, peers []string, expectCommitted uint64, probeBudget time.Duration) string {
	type member struct {
		addr string
		st   wire.Status
	}
	var live []member
	for _, addr := range orderers {
		st, err := node.StatusAtRetry(addr, time.Now().Add(probeBudget))
		if err != nil {
			continue // killed member: survivors carry the invariant
		}
		live = append(live, member{addr, st})
	}
	if len(live) == 0 {
		return "no orderer reachable"
	}
	ref := live[0].st
	for _, m := range live[1:] {
		if m.st.Blocks != ref.Blocks || string(m.st.TipHash) != string(ref.TipHash) {
			return fmt.Sprintf("orderers %s and %s disagree (%d/%x vs %d/%x)",
				live[0].addr, m.addr, ref.Blocks, ref.TipHash, m.st.Blocks, m.st.TipHash)
		}
	}
	if ref.CommittedTx < expectCommitted {
		return fmt.Sprintf("ledger holds %d committed transactions, clients observed %d",
			ref.CommittedTx, expectCommitted)
	}
	var refState string
	for i, addr := range peers {
		st, err := node.StatusAtRetry(addr, time.Now().Add(probeBudget))
		if err != nil {
			return fmt.Sprintf("peer %s unreachable (%v)", addr, err)
		}
		if st.Blocks != ref.Blocks || string(st.TipHash) != string(ref.TipHash) {
			return fmt.Sprintf("peer %s at %d/%x, orderers at %d/%x",
				addr, st.Blocks, st.TipHash, ref.Blocks, ref.TipHash)
		}
		if st.CommittedTx != ref.CommittedTx {
			return fmt.Sprintf("peer %s counts %d committed, orderers %d", addr, st.CommittedTx, ref.CommittedTx)
		}
		if i == 0 {
			refState = st.StateHash
		} else if st.StateHash != refState {
			return fmt.Sprintf("peer state fingerprints diverge (%s: %.16s… vs %.16s…)", addr, st.StateHash, refState)
		}
	}
	return ""
}
