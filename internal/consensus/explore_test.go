package consensus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/sim"
)

// The schedule explorer runs 3–5 RaftCores in virtual time on sim.Engine,
// driven by a model of transport.RaftService's timing rules: a tick every
// heartbeat, a fresh member's first election deadline at its rank ×
// heartbeat and a randomized [T, 2T) one otherwise, a candidate re-sending
// its RequestVote on every tick, and a leader whose per-follower sender
// sends what lies past the follower's sent cursor, heartbeats only a
// follower it sent nothing to for an interval, and rewinds the cursor of a
// follower that stayed silent for one. The network drops, duplicates and
// delays (so reorders) messages, and members crash and restart from their
// persisted term and vote alone — the log is volatile. After every event
// the explorer checks the four safety properties of the Raft paper (§5.2,
// Figure 3): Election Safety, Log Matching, Leader Completeness and State
// Machine Safety.
//
// The client submits control entries (markers), which wake the senders at
// once. With onTick set it also submits transaction entries, which wake no
// sender and go out on the leader's next tick, or with the next marker, and
// the leader tells every follower at once when a marker commits — the
// driver's replication cadence.
//
// With hot set, every member keeps a hot tail of that many committed
// entries and compacts the rest into a cold log after every event, as the
// driver does after every transition, so a follower caught up after a
// restart, a dropped append or a rewind is sent entries read back from the
// leader's cold log.
//
// A volatile log is safe only while a member loses its log when each entry
// it holds also lives on a quorum of the other members (docs/consensus.md,
// "Crash model and persistence"), so a guarded run crashes a member only
// then. TestExplorerVolatileLogCounterSchedule lifts the guard and pins the
// schedule that shows why it is needed.

const (
	exploreHeartbeat = 10 * sim.Millisecond
	exploreTimeout   = 100 * sim.Millisecond // T of the [T, 2T) timer
	exploreLatency   = sim.Millisecond
	exploreHorizon   = 1500 * sim.Millisecond
	exploreMsgFault  = 0.15 // share of messages dropped, duplicated or delayed
	exploreCrash     = 0.02 // chance per heartbeat that a member crashes
	exploreSubmit    = 0.3  // chance per heartbeat that a client submits
	exploreTxShare   = 0.7  // with onTick, the share of submissions that are transactions
)

// schedule draws every fault decision of one run from a seeded rng.
// Decision k is a fault only if the rng chose one and keep admits k (a nil
// keep admits all). A decision forced to its default — deliver once, on
// time; crash nobody — still draws from the rng, so (seed, keep) replays
// the same run.
type schedule struct {
	rng    *rand.Rand
	keep   map[int]bool
	drawn  int
	faults []int    // the decisions that were faults, in order
	log    []string // one line per fault, for the printed schedule
}

// pick draws decision k: a kind in [0, kinds) and an argument, or kind -1
// when the decision is the default.
func (s *schedule) pick(prob float64, kinds int) (int, int64) {
	k := s.drawn
	s.drawn++
	r, kind, arg := s.rng.Float64(), s.rng.Intn(kinds), s.rng.Int63()
	if r >= prob || (s.keep != nil && !s.keep[k]) {
		return -1, arg
	}
	s.faults = append(s.faults, k)
	return kind, arg
}

type exploreMsg struct {
	from, to string
	body     any // VoteRequest, VoteResponse, AppendRequest or AppendResponse
}

func (m exploreMsg) String() string {
	switch b := m.body.(type) {
	case VoteRequest:
		return fmt.Sprintf("%s→%s vote(term %d, last %d/%d)", m.from, m.to, b.Term, b.LastIndex, b.LastTerm)
	case VoteResponse:
		return fmt.Sprintf("%s→%s vote-resp(term %d, granted %v)", m.from, m.to, b.Term, b.Granted)
	case AppendRequest:
		return fmt.Sprintf("%s→%s append(term %d, prev %d/%d, %d entries, commit %d)",
			m.from, m.to, b.Term, b.PrevIndex, b.PrevTerm, len(b.Entries), b.LeaderCommit)
	case AppendResponse:
		return fmt.Sprintf("%s→%s append-resp(term %d, ok %v, match %d)", m.from, m.to, b.Term, b.Success, b.MatchIndex)
	}
	return "?"
}

// follower is a leader's driver state for one follower: whether it sent
// the follower entries, and heard from it, since the last tick.
type follower struct{ busy, heard bool }

type exploreMember struct {
	id, rank int
	name     string
	core     *RaftCore
	up       bool
	term     uint64 // persisted
	vote     string // persisted
	deadline sim.Time
	rng      *rand.Rand // election jitter
	vote1    VoteRequest
	peers    map[string]*follower
	checked  uint64 // committed prefix already checked against the record
	dirty    bool   // the log changed since the last check
	cold     *memCold
}

// entryAt is c's entry at i, looked up without a read back from the cold
// log: the checker's view, which is not the driver's.
func entryAt(c *RaftCore, i uint64) LogEntry {
	if i <= c.base {
		return c.Cold.(*memCold).entries[i-1]
	}
	return c.log[i-c.base-1]
}

// memCold is a cold log on the heap that counts the entries read back.
type memCold struct {
	entries []LogEntry
	reads   *int
}

func (l *memCold) Append(es []LogEntry) error {
	l.entries = append(l.entries, es...)
	return nil
}

func (l *memCold) Read(from, to uint64) ([]LogEntry, error) {
	*l.reads += int(to - from + 1)
	return append([]LogEntry(nil), l.entries[from-1:to]...), nil
}

type entryID struct {
	term      uint64
	submitter string
	name      string
}

func idOf(e LogEntry) entryID {
	if e.Env.Tx != nil {
		return entryID{e.Term, e.Env.SubmittedBy, string(e.Env.Tx.ID)}
	}
	return entryID{e.Term, e.Env.SubmittedBy, e.Env.Commitment}
}

type world struct {
	e       *sim.Engine
	sch     *schedule
	work    *rand.Rand
	guard   bool
	onTick  bool   // transaction entries wait for the tick
	hot     uint64 // committed entries each member keeps hot; 0 keeps all
	cold    int    // entries read back from a cold log
	members []*exploreMember
	byName  map[string]*exploreMember
	leaders map[uint64]string // term → the one leader it had
	// committed[i-1] is the entry first seen committed at index i, and
	// commitTerm[i-1] the term of the member that saw it.
	committed  []entryID
	commitTerm []uint64
	submitted  int
	violation  string // "Property: detail"; empty while safe
}

// explore runs one schedule of n members and returns the world it left.
func explore(seed int64, n int, guard, onTick bool, hot uint64, keep map[int]bool) *world {
	w := &world{
		e:       sim.NewEngine(),
		sch:     &schedule{rng: rand.New(rand.NewSource(seed)), keep: keep},
		work:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		guard:   guard,
		onTick:  onTick,
		hot:     hot,
		byName:  map[string]*exploreMember{},
		leaders: map[uint64]string{},
	}
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	for i, name := range names {
		m := &exploreMember{id: i, rank: i, name: name, rng: rand.New(rand.NewSource(seed*31 + int64(i)))}
		w.members = append(w.members, m)
		w.byName[name] = m
		w.boot(m, names)
	}
	for _, m := range w.members {
		m := m
		var tick func()
		tick = func() {
			w.step(func() { w.tick(m) })
			if w.e.Now() < exploreHorizon {
				w.e.After(exploreHeartbeat, tick)
			}
		}
		w.e.After(exploreHeartbeat, tick)
	}
	var chaos func()
	chaos = func() {
		w.step(w.chaos)
		if w.e.Now() < exploreHorizon {
			w.e.After(exploreHeartbeat, chaos)
		}
	}
	w.e.After(exploreHeartbeat/2, chaos)
	w.e.RunAll()
	return w
}

// boot starts m from its persisted term and vote with an empty log.
func (w *world) boot(m *exploreMember, names []string) {
	c, err := NewRaftCore(m.name, names)
	if err != nil {
		panic(err)
	}
	c.Restore(m.term, m.vote)
	c.Persist = func(term uint64, vote string) { m.term, m.vote = term, vote }
	if w.hot > 0 {
		m.cold = &memCold{reads: &w.cold}
		c.Cold = m.cold
	}
	m.core, m.up, m.checked, m.peers, m.dirty = c, true, 0, nil, true
	if c.Term() == 0 {
		m.deadline = w.e.Now() + sim.Time(m.rank)*exploreHeartbeat
	} else {
		w.resetDeadline(m)
	}
}

func (w *world) resetDeadline(m *exploreMember) {
	m.deadline = w.e.Now() + exploreTimeout + sim.Time(m.rng.Int63n(int64(exploreTimeout)))
}

func (w *world) note(format string, args ...any) {
	w.sch.log = append(w.sch.log, fmt.Sprintf("%7.1fms  ", w.e.Now().Millis())+fmt.Sprintf(format, args...))
}

// step runs one event and checks the invariants after it; once a property
// failed, the rest of the schedule is skipped.
func (w *world) step(fn func()) {
	if w.violation != "" {
		return
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				w.violation = fmt.Sprintf("State Machine Safety: %v", r)
			}
		}()
		fn()
		if w.hot > 0 {
			for _, m := range w.members {
				if c := m.core; m.up && c.CommitIndex() > w.hot {
					if err := c.Compact(c.CommitIndex() - w.hot); err != nil {
						panic(err)
					}
				}
			}
		}
	}()
	if w.violation == "" {
		w.check()
	}
	if w.violation != "" {
		w.note("VIOLATED %s", w.violation)
	}
}

func (w *world) send(from, to string, body any) {
	m := exploreMsg{from: from, to: to, body: body}
	kind, arg := w.sch.pick(exploreMsgFault, 3)
	d := exploreLatency
	switch kind {
	case 0:
		w.note("drop %s", m)
		return
	case 1:
		again := d + sim.Time(arg%int64(exploreTimeout))
		w.note("duplicate %s, again at +%.1fms", m, again.Millis())
		w.e.After(again, func() { w.step(func() { w.deliver(m) }) })
	case 2:
		d += sim.Time(arg % int64(2*exploreTimeout))
		w.note("delay %s by %.1fms", m, d.Millis())
	}
	w.e.After(d, func() { w.step(func() { w.deliver(m) }) })
}

func (w *world) broadcast(m *exploreMember, body any) {
	for _, p := range m.core.Others() {
		w.send(m.name, p, body)
	}
}

func (w *world) deliver(msg exploreMsg) {
	m := w.byName[msg.to]
	if !m.up {
		return
	}
	c := m.core
	switch b := msg.body.(type) {
	case VoteRequest:
		resp := c.HandleVote(b)
		if resp.Granted {
			w.resetDeadline(m)
		}
		w.send(m.name, msg.from, resp)
	case VoteResponse:
		if c.HandleVoteResponse(b) {
			w.won(m)
		}
	case AppendRequest:
		m.dirty = m.dirty || len(b.Entries) > 0
		resp := c.HandleAppend(b)
		if b.Term == c.Term() {
			w.resetDeadline(m)
		}
		w.send(m.name, msg.from, resp)
	case AppendResponse:
		was := c.CommitIndex()
		c.HandleAppendResponse(b)
		if c.Role() == RoleLeader {
			if f := m.peers[msg.from]; f != nil {
				f.heard = true
			}
			if !b.Success { // the reject rewound the cursor
				w.sender(m, msg.from)
			}
			if w.onTick {
				w.announce(m, was)
			}
		}
	}
}

// won starts a new leader's senders; its no-op lies past every cursor.
func (w *world) won(m *exploreMember) {
	m.peers, m.dirty = map[string]*follower{}, true
	for _, p := range m.core.Others() {
		m.peers[p] = &follower{}
		w.sender(m, p)
	}
}

// sender is the model of a per-follower sender woken with nothing due but
// what lies past the follower's cursor: it sends all of it.
func (w *world) sender(m *exploreMember, peer string) {
	for m.core.Behind(peer) {
		m.peers[peer].busy = true
		w.send(m.name, peer, request(m.core, peer))
	}
}

// announce is the driver telling every follower at once that an entry other
// than a transaction committed, rather than on the next tick.
func (w *world) announce(m *exploreMember, was uint64) {
	c := m.core
	for i := was + 1; i <= c.CommitIndex(); i++ {
		if entry(c, i).Env.Tx == nil {
			for _, p := range c.Others() {
				if c.Behind(p) {
					w.sender(m, p)
				} else {
					w.send(m.name, p, request(c, p))
				}
			}
			return
		}
	}
}

func (w *world) tick(m *exploreMember) {
	if !m.up {
		return
	}
	c := m.core
	switch {
	case c.Role() == RoleLeader:
		for _, p := range c.Others() {
			f := m.peers[p]
			if !f.heard && !f.busy {
				c.Rewind(p) // silent for an interval: re-send what it may have lost
			}
			idle := !f.busy && !c.Behind(p)
			f.heard, f.busy = false, false
			w.sender(m, p)
			if idle {
				w.send(m.name, p, request(c, p))
			}
		}
	case w.e.Now() >= m.deadline:
		m.vote1 = c.StartElection()
		w.resetDeadline(m)
		if c.Role() == RoleLeader {
			w.won(m)
			return
		}
		w.broadcast(m, m.vote1)
	case c.Role() == RoleCandidate && m.vote1.Term == c.Term():
		w.broadcast(m, m.vote1) // re-send until won, lost or timed out
	}
}

// chaos is the once-a-heartbeat client and fault plan: maybe submit to a
// leader, maybe crash one member (restarted after a drawn downtime). At
// most one member is down at a time.
func (w *world) chaos() {
	if w.work.Float64() < exploreSubmit {
		for _, m := range w.members {
			if m.up && m.core.Role() == RoleLeader {
				w.submitted++
				name := fmt.Sprintf("e%d", w.submitted)
				env := Envelope{SubmittedBy: "client", Commitment: name}
				if w.onTick && w.work.Float64() < exploreTxShare {
					env = Envelope{SubmittedBy: "client", Tx: &protocol.Transaction{ID: protocol.TxID(name)}}
				}
				if _, err := m.core.Append(env); err == nil {
					m.dirty = true
					if env.Tx == nil { // a transaction entry waits for the tick
						for _, p := range m.core.Others() {
							w.sender(m, p)
						}
					}
				}
				break
			}
		}
	}
	kind, arg := w.sch.pick(exploreCrash, len(w.members))
	if kind < 0 {
		return
	}
	m := w.members[kind]
	for _, o := range w.members {
		if !o.up {
			return
		}
	}
	if w.guard && !w.replicatedElsewhere(m) {
		return
	}
	down := exploreHeartbeat + sim.Time(arg%int64(4*exploreTimeout))
	w.note("crash %s (term %d, log %d, commit %d), restart after %.1fms",
		m.name, m.core.Term(), m.core.LastIndex(), m.core.CommitIndex(), down.Millis())
	m.up = false
	names := make([]string, len(w.members))
	for i, o := range w.members {
		names[i] = o.name
	}
	w.e.After(down, func() {
		w.step(func() {
			w.boot(m, names)
			w.note("restart %s at term %d with an empty log", m.name, m.term)
		})
	})
}

// replicatedElsewhere reports whether each entry of m's log also lives, at
// the same index and term, on a quorum of the other members.
func (w *world) replicatedElsewhere(m *exploreMember) bool {
	q := len(w.members)/2 + 1
	for i := uint64(1); i <= m.core.LastIndex(); i++ {
		n := 0
		for _, o := range w.members {
			if o != m && o.up && o.core.LastIndex() >= i && o.core.TermAt(i) == m.core.TermAt(i) {
				n++
			}
		}
		if n < q {
			return false
		}
	}
	return true
}

// check asserts the four properties over the members that are up (a
// crashed member holds nothing but its persisted term and vote).
func (w *world) check() {
	var up []*exploreMember
	for _, m := range w.members {
		if m.up {
			up = append(up, m)
		}
	}
	for _, m := range up {
		c := m.core
		if c.Role() == RoleLeader {
			if l, ok := w.leaders[c.Term()]; ok && l != m.name {
				w.violation = fmt.Sprintf("Election Safety: %s and %s both lead term %d", l, m.name, c.Term())
				return
			}
			w.leaders[c.Term()] = m.name
		}
		for i := m.checked + 1; i <= c.CommitIndex(); i++ {
			id := idOf(entryAt(c, i))
			if int(i) > len(w.committed) {
				w.committed = append(w.committed, id)
				w.commitTerm = append(w.commitTerm, c.Term())
			} else if w.committed[i-1] != id {
				w.violation = fmt.Sprintf("State Machine Safety: %s applies %v at %d, %v was applied there first", m.name, id, i, w.committed[i-1])
				return
			}
		}
		m.checked = c.CommitIndex()
	}
	// A log changes only by an append, a leader's no-op or a restart, so
	// only a changed log is compared with the others.
	for _, x := range up {
		for _, y := range up {
			if x != y && x.dirty {
				if v := logsMatch(x.core, y.core); v != "" {
					w.violation = "Log Matching: " + v
					return
				}
			}
		}
		x.dirty = false
	}
	for _, m := range up {
		c := m.core
		if c.Role() != RoleLeader {
			continue
		}
		for i, id := range w.committed {
			if w.commitTerm[i] > c.Term() {
				continue
			}
			idx := uint64(i + 1)
			if idx > c.LastIndex() || idOf(entryAt(c, idx)) != id {
				w.violation = fmt.Sprintf("Leader Completeness: %s leads term %d without %v, committed at %d in term %d",
					m.name, c.Term(), id, idx, w.commitTerm[i])
				return
			}
		}
	}
}

// logsMatch checks Log Matching for two logs: below the highest index at
// which both hold an entry of the same term, every entry is the same.
func logsMatch(a, b *RaftCore) string {
	top := a.LastIndex()
	if b.LastIndex() < top {
		top = b.LastIndex()
	}
	for ; top > 0 && a.TermAt(top) != b.TermAt(top); top-- {
	}
	for i := uint64(1); i <= top; i++ {
		if idOf(entryAt(a, i)) != idOf(entryAt(b, i)) {
			return fmt.Sprintf("%s and %s agree at %d/term %d but differ at %d: %v vs %v",
				a.id, b.id, top, a.TermAt(top), i, idOf(entryAt(a, i)), idOf(entryAt(b, i)))
		}
	}
	return ""
}

func (w *world) kind() string {
	k, _, _ := strings.Cut(w.violation, ":")
	return k
}

// shrink drops faults from a failing schedule one at a time, keeping each
// removal after which the same property still fails; what is left is a
// schedule from which no single fault can be removed.
func shrink(seed int64, n int, guard, onTick bool, hot uint64, failed *world) ([]int, *world) {
	keep := append([]int(nil), failed.sch.faults...)
	best := failed
	for i := 0; i < len(keep); {
		try := map[int]bool{}
		for j, k := range keep {
			if j != i {
				try[k] = true
			}
		}
		if w := explore(seed, n, guard, onTick, hot, try); w.kind() == failed.kind() {
			keep, best = w.sch.faults, w
			continue
		}
		i++
	}
	return keep, best
}

// replayable prints a failing schedule so that it can be replayed:
// explore(seed, n, guard, onTick, hot, keep) runs it again.
func replayable(seed int64, n int, guard, onTick bool, hot uint64, keep []int, w *world) string {
	sort.Ints(keep)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nreplay: explore(%d, %d, %v, %v, %d, keep(%v))\n", w.violation, seed, n, guard, onTick, hot, keep)
	for _, line := range w.sch.log {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

func keepOf(faults ...int) map[int]bool {
	m := map[int]bool{}
	for _, k := range faults {
		m[k] = true
	}
	return m
}

// exploreSchedules is the seeded schedule count the explorer runs.
const exploreSchedules = 2000

// exploreHot is the hot tail of the explorer's compacting cadence: a few
// entries, so that its schedules cross the cold boundary.
const exploreHot = 3

// TestRaftExplorer runs exploreSchedules seeded schedules of 3–5 members
// with guarded crashes in three cadences — every submission waking the
// senders; transaction entries waiting for the tick; and that, with a hot
// tail of exploreHot entries — and fails with the first violated
// property's minimal schedule.
func TestRaftExplorer(t *testing.T) {
	for _, cad := range []struct {
		onTick bool
		hot    uint64
	}{{false, 0}, {true, 0}, {true, exploreHot}} {
		onTick, hot := cad.onTick, cad.hot
		var elected, committed, crashes, cold int
		for seed := int64(1); seed <= exploreSchedules; seed++ {
			n := 3 + int(seed%3)
			w := explore(seed, n, true, onTick, hot, nil)
			if w.violation != "" {
				keep, min := shrink(seed, n, true, onTick, hot, w)
				t.Fatalf("seed %d: %s", seed, replayable(seed, n, true, onTick, hot, keep, min))
			}
			cold += w.cold
			if len(w.leaders) > 0 {
				elected++
			}
			committed += len(w.committed)
			for _, line := range w.sch.log {
				if strings.Contains(line, "crash ") {
					crashes++
				}
			}
		}
		// The schedules must exercise what they check: leaders elected,
		// entries committed, members crashed and restarted.
		if elected < exploreSchedules*9/10 || committed < 20*exploreSchedules || crashes < exploreSchedules/4 {
			t.Fatalf("onTick %v, hot %d: explorer too tame: %d/%d schedules elected, %d entries committed, %d crashes",
				onTick, hot, elected, exploreSchedules, committed, crashes)
		}
		// The compacting cadence must send and check entries read back.
		if hot > 0 && cold < exploreSchedules {
			t.Fatalf("hot %d: only %d entries read back from a cold log", hot, cold)
		}
		t.Logf("onTick %v, hot %d, %d schedules: %d elected a leader, %d entries committed, %d crash-restarts, %d cold reads",
			onTick, hot, exploreSchedules, elected, committed, crashes, cold)
	}
}

// The volatile log's counter-schedule, found by the unguarded explorer at
// seed 110: leader a and follower b hold e15 at index 16 and a commits it;
// the append carrying it to c is dropped; a crashes and restarts with an
// empty log; c, which never had e15, wins a's vote in term 3 — a committed
// entry is gone. It is expected to fail until the log is durable (ROADMAP
// item 1 PR B); this test fails once it stops failing.
const (
	counterSeed    = 110
	counterMembers = 3
)

var counterKeep = []int{16, 36, 79, 157, 212, 215, 217}

// TestExplorerVolatileLogCounterSchedule is the expected failure: the seed
// and its minimal replay both lose a committed entry.
func TestExplorerVolatileLogCounterSchedule(t *testing.T) {
	for _, keep := range []map[int]bool{nil, keepOf(counterKeep...)} {
		w := explore(counterSeed, counterMembers, false, false, 0, keep)
		switch w.kind() {
		case "Leader Completeness", "State Machine Safety":
			t.Logf("expected failure:\n%s", replayable(counterSeed, counterMembers, false, false, 0, w.sch.faults, w))
		default:
			t.Fatalf("seed %d with a volatile log no longer loses a committed entry (violation %q): "+
				"if the log is durable now, turn this into a passing schedule", counterSeed, w.violation)
		}
	}
}
