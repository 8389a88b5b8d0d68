package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/wire"
)

// proc is one fabricnode OS process.
type proc struct {
	role string // "orderer" or "peer"
	name string
	addr string // client-facing address
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// stop ends the process and waits for it: SIGTERM (or SIGKILL when hard),
// then SIGKILL if it has not gone within five seconds.
func (p *proc) stop(hard bool) {
	if p.alive() {
		sig := syscall.SIGTERM
		if hard {
			sig = syscall.SIGKILL
		}
		_ = p.cmd.Process.Signal(sig)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	_ = p.log.Close()
}

// cluster is a booted multi-process deployment of one workload.
type cluster struct {
	spec     workloadSpec
	dir      string
	orderers []*proc
	peers    []*proc
}

// reserveAddrs picks n free loopback ports. Raft members and peers must know
// each other's addresses before any of them starts, so the ports are chosen
// here and handed to the nodes as flags.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// bootCluster spawns the workload's node processes and returns once every
// one of them answers a status request (and, under Raft, a leader is known).
// dir receives logs and the nodes' durable state; it must be fresh.
func bootCluster(nodeBin, dir string, spec workloadSpec) (*cluster, error) {
	c := &cluster{spec: spec, dir: dir}
	nOrd := 1
	if spec.Raft {
		nOrd = 3
	}
	addrs, err := reserveAddrs(2*nOrd + peerCount)
	if err != nil {
		return nil, err
	}
	clientAddrs, raftAddrs, peerAddrs := addrs[:nOrd], addrs[nOrd:2*nOrd], addrs[2*nOrd:]
	peerNames := make([]string, peerCount)
	for i := range peerNames {
		peerNames[i] = fmt.Sprintf("peer%d", i)
	}
	common := []string{
		"-peers", strings.Join(peerNames, ","),
		"-system", spec.System,
		"-workload", scenarioName,
		"-accounts", strconv.Itoa(spec.Accounts),
	}
	if spec.Rescue {
		common = append(common, "-rescue")
	}
	redirects := make([]string, nOrd)
	for i := range redirects {
		redirects[i] = raftAddrs[i] + "=" + clientAddrs[i]
	}
	for i := 0; i < nOrd; i++ {
		args := append([]string{
			"-role", "orderer", "-listen", clientAddrs[i], "-orderers", "1",
			"-block-size", strconv.Itoa(blockSize), "-block-timeout", blockTimeout.String(),
		}, common...)
		if spec.Raft {
			args = append(args,
				"-raft-id", raftAddrs[i],
				"-raft-cluster", strings.Join(raftAddrs, ","),
				"-raft-redirects", strings.Join(redirects, ","),
				"-raft-dir", filepath.Join(dir, fmt.Sprintf("raft%d", i)))
		}
		p, err := spawn(nodeBin, dir, "orderer", fmt.Sprintf("orderer%d", i), clientAddrs[i], args)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.orderers = append(c.orderers, p)
	}
	for i := 0; i < peerCount; i++ {
		args := append([]string{
			"-role", "peer", "-name", peerNames[i], "-listen", peerAddrs[i],
			"-orderer", strings.Join(clientAddrs, ","),
		}, common...)
		if spec.Durable {
			args = append(args, "-data-dir", filepath.Join(dir, "data-"+peerNames[i]))
		}
		p, err := spawn(nodeBin, dir, "peer", peerNames[i], peerAddrs[i], args)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	if err := c.awaitReady(60 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func spawn(nodeBin, dir, role, name, addr string, args []string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(nodeBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness that dies without tearing down must not leave nodes behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{role: role, name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// awaitReady waits until every node answers status and, under Raft, some
// orderer names a leader.
func (c *cluster) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range c.nodes() {
		if _, err := node.StatusAtRetry(p.addr, deadline); err != nil {
			return fmt.Errorf("%s never answered status: %w%s", p.name, err, c.logTail(p))
		}
		if !p.alive() {
			return fmt.Errorf("%s exited during start-up%s", p.name, c.logTail(p))
		}
	}
	if !c.spec.Raft {
		return nil
	}
	for time.Now().Before(deadline) {
		if c.leader() != nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("no raft leader within %s", timeout)
}

func (c *cluster) nodes() []*proc {
	return append(append([]*proc{}, c.orderers...), c.peers...)
}

func addrsOf(ps []*proc) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.addr
	}
	return out
}

// leader returns the orderer process the live members name as Raft leader,
// nil while none is known.
func (c *cluster) leader() *proc {
	for _, p := range c.orderers {
		if !p.alive() {
			continue
		}
		st, err := node.StatusAt(p.addr, time.Second)
		if err != nil || st.Leader == "" {
			continue
		}
		for _, q := range c.orderers {
			if q.addr == st.Leader && q.alive() {
				return q
			}
		}
	}
	return nil
}

// statuses probes every live node.
func (c *cluster) statuses() (ords, peers []wire.Status, err error) {
	for _, p := range c.nodes() {
		if !p.alive() {
			if p.role == "peer" {
				return nil, nil, fmt.Errorf("%s is dead%s", p.name, c.logTail(p))
			}
			continue // a killed orderer: the survivors carry the invariant
		}
		st, err := node.StatusAtRetry(p.addr, time.Now().Add(5*time.Second))
		if err != nil {
			return nil, nil, fmt.Errorf("status %s: %w", p.name, err)
		}
		if p.role == "orderer" {
			ords = append(ords, st)
		} else {
			peers = append(peers, st)
		}
	}
	if len(ords) == 0 {
		return nil, nil, fmt.Errorf("no live orderer")
	}
	return ords, peers, nil
}

// disagreement takes one snapshot and says why the replicas are not yet
// bit-identical, "" when they are: every live orderer and every peer at the
// same chain tip, every peer at the same state fingerprint, and the ledger
// holding at least wantCommitted committed transactions.
func (c *cluster) disagreement(wantCommitted uint64) (string, error) {
	ords, peers, err := c.statuses()
	if err != nil {
		return "", err
	}
	ref := ords[0]
	for _, st := range append(ords[1:], peers...) {
		if st.Blocks != ref.Blocks || !bytes.Equal(st.TipHash, ref.TipHash) {
			return fmt.Sprintf("%s %s at block %d tip %x, %s at block %d tip %x",
				st.Role, st.Name, st.Blocks, st.TipHash, ref.Name, ref.Blocks, ref.TipHash), nil
		}
	}
	for _, st := range peers[1:] {
		if st.StateHash != peers[0].StateHash {
			return fmt.Sprintf("peers %s and %s differ in state fingerprint", peers[0].Name, st.Name), nil
		}
	}
	if ref.CommittedTx < wantCommitted {
		return fmt.Sprintf("ledger holds %d committed transactions, clients were acked %d", ref.CommittedTx, wantCommitted), nil
	}
	return "", nil
}

// awaitAgreement waits for the cluster to go idle and converge. Between
// phases it is the drain; after the last one it is the correctness gate.
func (c *cluster) awaitAgreement(wantCommitted uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		why, err := c.disagreement(wantCommitted)
		if err != nil {
			return err
		}
		if why == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %s: %s", timeout, why)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// maxTerm is the highest Raft term a live orderer reports (0 standalone).
func (c *cluster) maxTerm() uint64 {
	ords, _, err := c.statuses()
	if err != nil {
		return 0
	}
	var term uint64
	for _, st := range ords {
		if st.Term > term {
			term = st.Term
		}
	}
	return term
}

// stop ends every node process and waits for each.
func (c *cluster) stop() {
	var wg sync.WaitGroup
	for _, p := range c.nodes() {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop(false)
		}(p)
	}
	wg.Wait()
}

// logTail renders the end of a node's log for an error message.
func (c *cluster) logTail(p *proc) string {
	raw, err := os.ReadFile(filepath.Join(c.dir, p.name+".log"))
	if err != nil || len(raw) == 0 {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return fmt.Sprintf("\n--- %s log ---\n%s", p.name, raw)
}

// diskBytes sums the regular files under the peers' data directories.
func (c *cluster) diskBytes() int64 {
	var total int64
	for _, p := range c.peers {
		_ = filepath.WalkDir(filepath.Join(c.dir, "data-"+p.name), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
			return nil
		})
	}
	return total
}

// usage is one process's accounting snapshot from /proc.
type usage struct {
	CPU   float64 // user+system seconds
	RSSMB float64 // resident set
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTick = 100.0

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (usage, error) {
	var u usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	u.CPU = (utime + stime) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok || key != "VmRSS" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return u, fmt.Errorf("malformed VmRSS in /proc/%d/status", pid)
		}
		u.RSSMB = kb / 1024
	}
	return u, nil
}

// roleUsage sums accounting over the live processes of one role ("" = all).
func (c *cluster) roleUsage(role string) usage {
	var sum usage
	for _, p := range c.nodes() {
		if (role != "" && p.role != role) || !p.alive() {
			continue
		}
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			continue // exited between the check and the read
		}
		sum.CPU += u.CPU
		sum.RSSMB += u.RSSMB
	}
	return sum
}
