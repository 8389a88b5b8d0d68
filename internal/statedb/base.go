package statedb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// Base is an immutable set of (key, value, version) entries in ascending key
// order: the state a database or an orderer's shadow was loaded with — a
// genesis, or a durable peer's reopened store — and then mostly reads. It
// holds no pointer the collector has to follow: the keys are one string, the
// values one byte arena, each cut by uint32 offsets, and the point index is
// an open-addressing table of entry numbers. A map of the same entries
// costs about 120 B per key, every one of them rescanned by each collection.
//
// A nil *Base is the empty base.
type Base struct {
	keys   string      // every key, ascending, concatenated
	keyOff []uint32    // key i is keys[keyOff[i]:keyOff[i+1]]
	vals   []byte      // every value, in key order
	valOff []uint32    // value i is vals[valOff[i]:valOff[i+1]]
	vers   []seqno.Seq // one version per entry, or one shared by them all
	slots  []uint32    // entry+1 at its probe position, 0 free; a power of two long
	shift  uint8       // 64 - log2(len(slots))
}

// errBaseShape refuses a write set a base cannot hold as ApplyBlock would:
// the base keeps one live version per key.
var errBaseShape = errors.New("statedb: a base holds one write per key and no delete")

// NewBase builds the base of one write set, every entry at version ver. The
// write set may come in any order: NewBase sorts an index over it and leaves
// the slice as it was. It refuses a write set that deletes a key or writes
// one twice: applied as a block, those leave a tombstone or two versions,
// which a base does not hold (no genesis does either).
func NewBase(writes []protocol.WriteItem, ver seqno.Seq) (*Base, error) {
	order := make([]int32, len(writes))
	for i, w := range writes {
		if w.Delete {
			return nil, errBaseShape
		}
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(writes[a].Key, writes[b].Key) })
	return BuildBase(ver, func(put func(key, val []byte)) {
		var key []byte
		for _, i := range order {
			key = append(key[:0], writes[i].Key...)
			put(key, writes[i].Value)
		}
	})
}

// BuildBase builds the base of the entries each passes to put, every one at
// version ver. The entries must come in strictly ascending key order: a key
// out of order is refused, and so is one given twice. each is called twice
// and must put the same entries both times: once to size the arenas, once to
// copy every entry into them, so the build makes the same few allocations
// however many entries it holds. put copies its arguments. An empty base is
// nil.
func BuildBase(ver seqno.Seq, each func(put func(key, val []byte))) (*Base, error) {
	var n, nk, nv int
	each(func(key, val []byte) { n, nk, nv = n+1, nk+len(key), nv+len(val) })
	if n == 0 {
		return nil, nil
	}
	if uint64(nk) > math.MaxUint32 || uint64(nv) > math.MaxUint32 {
		return nil, errArena
	}
	bb := baseBuilder{sized: true}
	bb.keys.Grow(nk)
	bb.keyOff = make([]uint32, 1, n+1)
	bb.vals = make([]byte, 0, nv)
	bb.valOff = make([]uint32, 1, n+1)
	var err error
	each(func(key, val []byte) {
		if err == nil {
			err = bb.add(key, val, ver)
		}
	})
	if err != nil {
		return nil, err
	}
	return bb.build(), nil
}

// errArena refuses a base whose keys or values pass what a uint32 offset
// reaches.
var errArena = errors.New("statedb: a base arena passed 4 GiB")

// baseBuilder packs a strictly ascending stream of entries into a Base:
// BuildBase's, into arenas it sized, and a reopened store's scan, of unknown
// length. Its keys go into a strings.Builder, which the base keeps without a
// copy when BuildBase sized it.
type baseBuilder struct {
	sized  bool
	keys   strings.Builder
	keyOff []uint32
	vals   []byte
	valOff []uint32
	ver    seqno.Seq   // the first entry's version
	vers   []seqno.Seq // one per entry, nil while every entry is at ver
}

// add appends one entry; its key must sort after the previous one.
func (bb *baseBuilder) add(key, val []byte, ver seqno.Seq) error {
	if bb.keyOff == nil {
		bb.keyOff, bb.valOff = []uint32{0}, []uint32{0}
	}
	n := len(bb.keyOff) - 1
	if n == 0 {
		bb.ver = ver
	} else if prev := bb.keys.String()[bb.keyOff[n-1]:]; string(key) <= prev {
		if string(key) == prev {
			return errBaseShape
		}
		return fmt.Errorf("statedb: base key %q after %q", key, prev)
	}
	if uint64(bb.keys.Len()+len(key)) > math.MaxUint32 || uint64(len(bb.vals)+len(val)) > math.MaxUint32 {
		return errArena
	}
	bb.keys.Write(key)
	bb.keyOff = append(bb.keyOff, uint32(bb.keys.Len()))
	bb.vals = append(bb.vals, val...)
	bb.valOff = append(bb.valOff, uint32(len(bb.vals)))
	if bb.vers == nil && ver != bb.ver {
		bb.vers = make([]seqno.Seq, n, n+1)
		for i := range bb.vers {
			bb.vers[i] = bb.ver
		}
	}
	if bb.vers != nil {
		bb.vers = append(bb.vers, ver)
	}
	return nil
}

// build trims the arenas to their final size and indexes the keys.
func (bb *baseBuilder) build() *Base {
	if len(bb.keyOff) < 2 {
		return nil
	}
	b := &Base{
		keys:   bb.keys.String(),
		keyOff: exact(bb.keyOff),
		vals:   exact(bb.vals),
		valOff: exact(bb.valOff),
		vers:   []seqno.Seq{bb.ver}, // a genesis: one version shared by every entry
	}
	if !bb.sized {
		b.keys = strings.Clone(b.keys)
	}
	if bb.vers != nil {
		b.vers = exact(bb.vers)
	}
	b.index()
	return b
}

// index builds the point index over b's entries; the table stays at most
// half full.
func (b *Base) index() {
	n := b.Len()
	logSize := bits.Len(uint(2*n - 1))
	b.slots = make([]uint32, 1<<logSize)
	b.shift = uint8(64 - logSize)
	mask := uint64(len(b.slots) - 1)
	for i := 0; i < n; i++ {
		p := b.probe(b.Key(i))
		for b.slots[p] != 0 {
			p = (p + 1) & mask
		}
		b.slots[p] = uint32(i + 1)
	}
}

// exact returns s in an array of its own length: a stream of unknown length
// grows its arrays by doubling, and a base keeps them for the process's life.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// probe is key's first slot: FNV-1a, spread over the table by a Fibonacci
// multiply so the top bits pick the slot.
func (b *Base) probe(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return (h * 0x9e3779b97f4a7c15) >> b.shift
}

// Len returns the number of entries.
func (b *Base) Len() int {
	if b == nil {
		return 0
	}
	return len(b.keyOff) - 1
}

// find returns key's entry number, or -1.
func (b *Base) find(key string) int {
	if b == nil {
		return -1
	}
	mask := uint64(len(b.slots) - 1)
	for p := b.probe(key); ; p = (p + 1) & mask {
		s := b.slots[p]
		if s == 0 {
			return -1
		}
		if b.Key(int(s-1)) == key {
			return int(s - 1)
		}
	}
}

// Get returns key's value and version. The value aliases the base and must
// not be mutated.
func (b *Base) Get(key string) ([]byte, seqno.Seq, bool) {
	i := b.find(key)
	if i < 0 {
		return nil, seqno.Seq{}, false
	}
	return b.value(i), b.version(i), true
}

// Key returns entry i's key; entries are numbered in ascending key order.
func (b *Base) Key(i int) string { return b.keys[b.keyOff[i]:b.keyOff[i+1]] }

// value is entry i's value, capped so an append cannot reach the next one.
func (b *Base) value(i int) []byte { return b.vals[b.valOff[i]:b.valOff[i+1]:b.valOff[i+1]] }

func (b *Base) version(i int) seqno.Seq {
	if len(b.vers) == 1 {
		return b.vers[0]
	}
	return b.vers[i]
}

// entry is entry i as the one version a history would hold.
func (b *Base) entry(i int) VersionedValue {
	return VersionedValue{Value: b.value(i), Version: b.version(i)}
}

// history is what a key's first write appends to: its base entry, or nil.
func (b *Base) history(key string) []VersionedValue {
	if i := b.find(key); i >= 0 {
		return append(make([]VersionedValue, 0, 2), b.entry(i))
	}
	return nil
}

// span returns the entries whose keys fall in [start, end), end "" meaning
// no upper bound, as a half-open range of entry numbers.
func (b *Base) span(start, end string) (lo, hi int) {
	n := b.Len()
	lo = sort.Search(n, func(i int) bool { return b.Key(i) >= start })
	hi = n
	if end != "" {
		hi = lo + sort.Search(n-lo, func(i int) bool { return b.Key(lo+i) >= end })
	}
	return lo, hi
}
