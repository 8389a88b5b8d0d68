package trace

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// MaxTxIDLen is the longest transaction-ID prefix a slot stores. Client IDs
// are "<client>-<seq>" (well under this); longer IDs are truncated, which
// only risks a timeline join collision, never corruption.
const MaxTxIDLen = 48

// DefaultRingSize is the per-node ring capacity when the config leaves it
// unset: 128Ki events, 10 MiB of slots. A transaction leaves 3–4 events on
// each orderer it crosses, so at 800 tx/s an orderer's ring holds the last
// ~40 s; a peer leaves 3 per block and one per rescued transaction, so at
// 100-transaction blocks its ring holds over an hour.
const DefaultRingSize = 1 << 17

// payloadWords is the per-slot payload: wall clock, block number, a packed
// stage/len word, and MaxTxIDLen bytes of transaction ID.
const payloadWords = 3 + MaxTxIDLen/8

// slotBusy marks a slot mid-write. Tickets start at 1 and would need 2^64-1
// records to collide with it.
const slotBusy = ^uint64(0)

// slot is one preallocated ring entry. Every word is atomic — the seqlock
// protocol below needs no fences beyond Go's atomic ordering, and the race
// detector agrees (drains run concurrently with writers by design).
//
// Layout: seq is the claiming ticket (0 = never written, slotBusy =
// mid-write); words[0] = wall-clock ns, words[1] = block, words[2] =
// stage<<8 | len(txID), words[3:] = txID bytes packed little-endian.
type slot struct {
	seq   atomic.Uint64
	words [payloadWords]atomic.Uint64
}

// Ring is a fixed-size lock-free circular event buffer: an atomic cursor
// hands each writer a unique ticket, the ticket picks a preallocated slot,
// and wraparound overwrites the oldest events. The record path takes no
// locks and performs no allocations; drains (Snapshot) are concurrent-safe
// and return only consistent events, skipping any slot caught mid-write.
//
// Per-slot protocol (a seqlock variant with ticket-claimed ownership):
//
//	writer: CAS seq -> slotBusy, store payload words, store seq = ticket
//	reader: t1 := seq; read payload; t2 := seq; accept iff t1 == t2 and
//	        t1 is a real ticket
//
// Unique tickets make the validation ABA-free. Two writers can only race
// on one slot when one has lapped the entire ring while the other's write
// was still in flight; the CAS then makes the late writer drop its event
// (counted by Recorded minus the surviving window) instead of blocking.
//
// The slots live off the GC heap where the platform allows (mapSlots): a
// slot holds no pointer, so the collector has nothing to find there, and
// the ring does not count towards the heap goal, which the runtime sets at
// twice the live heap.
type Ring struct {
	mask   uint64
	cursor atomic.Uint64
	slots  []slot
}

// NewRing builds a ring with at least the given capacity, rounded up to a
// power of two; capacity <= 0 selects DefaultRingSize.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	r := &Ring{mask: uint64(size - 1)}
	r.slots = mapSlots(r, size)
	return r
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded returns the lifetime event count (tickets issued).
func (r *Ring) Recorded() uint64 { return r.cursor.Load() }

// RecordAt stores one event with an explicit timestamp. The hot path:
// zero allocations, no locks, wait-free except for one CAS retry per
// concurrent claimer of the same slot.
func (r *Ring) RecordAt(txID string, stage Stage, block uint64, wallNS int64) {
	if len(txID) > MaxTxIDLen {
		txID = txID[:MaxTxIDLen]
	}
	ticket := r.cursor.Add(1)
	s := &r.slots[(ticket-1)&r.mask]
	for {
		cur := s.seq.Load()
		if cur == slotBusy {
			// A writer that lapped the whole ring owns this slot mid-write;
			// its event is newer — drop ours rather than block or corrupt.
			runtime.KeepAlive(r)
			return
		}
		if s.seq.CompareAndSwap(cur, slotBusy) {
			break
		}
	}
	s.words[0].Store(uint64(wallNS))
	s.words[1].Store(block)
	s.words[2].Store(uint64(stage)<<8 | uint64(len(txID)))
	var word uint64
	wi := 3
	for i := 0; i < len(txID); i++ {
		word |= uint64(txID[i]) << ((i & 7) * 8)
		if i&7 == 7 {
			s.words[wi].Store(word)
			wi++
			word = 0
		}
	}
	if len(txID)&7 != 0 {
		s.words[wi].Store(word)
	}
	s.seq.Store(ticket)
	runtime.KeepAlive(r) // the slot is unmapped when r is collected
}

// Snapshot drains a consistent view of the ring: every returned event was
// fully recorded (torn slots are skipped after bounded retries), ordered
// oldest-first by ticket. Writers proceed concurrently; the result is a
// consistent prefix-window of the record stream, at most Cap events deep.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 4; attempt++ {
			t1 := s.seq.Load()
			if t1 == 0 || t1 == slotBusy {
				break // never written, or mid-write right now
			}
			var w [payloadWords]uint64
			for j := range w {
				w[j] = s.words[j].Load()
			}
			if s.seq.Load() != t1 {
				continue // a writer overlapped the read; retry
			}
			if ev, ok := decodeSlot(t1, &w); ok {
				out = append(out, ev)
			}
			break
		}
	}
	runtime.KeepAlive(r)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// decodeSlot unpacks a validated slot image.
func decodeSlot(ticket uint64, w *[payloadWords]uint64) (Event, bool) {
	meta := w[2]
	idLen := int(meta & 0xff)
	stage := Stage(meta >> 8)
	if idLen > MaxTxIDLen || (stage < StageSubmit || stage >= stageEnd) && !stage.blockKeyed() {
		return Event{}, false // unreachable unless the protocol is broken
	}
	id := make([]byte, idLen)
	for i := 0; i < idLen; i++ {
		id[i] = byte(w[3+i/8] >> ((i & 7) * 8))
	}
	return Event{
		TxID:   string(id),
		Stage:  stage,
		Block:  w[1],
		WallNS: int64(w[0]),
		Seq:    ticket,
	}, true
}
