package statedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// Base is an immutable set of (key, value, version) entries in ascending key
// order: the state a database or an orderer's shadow was loaded with — a
// genesis, or a durable peer's reopened store — and the writes later folds
// settled into it (Merge).
//
// Everything its reads do not hand out lives in two byte regions. The key
// region holds the point index, an open-addressing table of entry numbers;
// n+1 key offsets; and the keys, concatenated, last, so that every
// little-endian uint32 before them is 4-byte aligned. The value region holds
// n+1 value offsets and one 12-byte version per entry, unless every entry
// shares one, as a genesis's do. A base merged without a new or dropped key
// shares its key region with the base it was merged from. A region is an
// anonymous mapping where the platform has one and it reaches mapMin, so
// the collector neither scans it nor counts it toward the heap goal, and a
// finalizer unmaps it once no base holds it. The values stay in one heap
// array, because reads hand them out. Keys never leave a region as
// aliases: the package compares and hashes them in place, and whatever
// returns a key returns a copy.
//
// Every read of a region ends with runtime.KeepAlive(b): its slices point
// outside the heap, so holding one does not keep b, and through it the
// region whose finalizer unmaps them, reachable. keyAt hands its caller an
// alias, and leaves that to the caller, after its last use of it.
//
// A nil *Base is the empty base.
type Base struct {
	keyIx, valIx *region   // hold the mappings the slices below point into
	slots        []byte    // entry+1 at its probe position, 0 free; a power of two long
	keyOff       []byte    // key i is keys[off(i):off(i+1)]
	keys         []byte    // every key, ascending, concatenated
	valOff       []byte    // value i is vals[off(i):off(i+1)]
	vers         []byte    // entry i's version at verLen*i, or nil when every one is ver
	vals         []byte    // every value, in key order; on the heap
	n            int       // entries
	ver          seqno.Seq // the first entry's version
	shift        uint8     // 64 - log2(slots)
	// prev is whether the value region of the base this one was merged
	// from has been unmapped.
	prev *atomic.Bool
}

// region is the bytes of a base's index, from newRegion. unmapped is set
// once they hold no mapping: at once for heap bytes, and when the finalizer
// has unmapped a mapping.
type region struct {
	mem      []byte
	unmapped *atomic.Bool
}

// heapRegion is a region of n zeroed heap bytes.
func heapRegion(n int) *region {
	r := &region{mem: make([]byte, n), unmapped: new(atomic.Bool)}
	r.unmapped.Store(true)
	return r
}

// offLen and verLen are the sizes of an offset or slot and of a version in
// the index.
const (
	offLen = 4
	verLen = 12
)

// u32 is s's i'th little-endian uint32 and putU32 writes it; pair reads
// the i'th and the i+1'th in one load.
func u32(s []byte, i int) uint32 { return binary.LittleEndian.Uint32(s[offLen*i : offLen*(i+1)]) }

func putU32(s []byte, i int, v uint32) {
	binary.LittleEndian.PutUint32(s[offLen*i:offLen*(i+1)], v)
}

func pair(s []byte, i int) (uint32, uint32) {
	v := binary.LittleEndian.Uint64(s[offLen*i : offLen*(i+2)])
	return uint32(v), uint32(v >> 32)
}

var (
	// errBaseShape refuses a write set a base cannot hold as ApplyBlock
	// would: the base keeps one live version per key.
	errBaseShape = errors.New("statedb: a base holds one write per key and no delete")
	// errArena refuses a base whose keys or values pass what a uint32
	// offset reaches.
	errArena = errors.New("statedb: a base arena passed 4 GiB")
	// errPasses refuses a build whose second pass put other entries than
	// its first.
	errPasses = errors.New("statedb: a base's entries changed between its two passes")
)

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
// and must put the same entries both times: once to size the index and the
// values, once to write every entry straight into them, so the build makes
// the same few allocations however many entries it holds. put copies its
// arguments. An empty base is nil.
func BuildBase(ver seqno.Seq, each func(put func(key, val []byte))) (*Base, error) {
	return buildBase(nil, func(put func(key, val []byte, ver seqno.Seq) error) error {
		var err error
		each(func(key, val []byte) {
			if err == nil {
				err = put(key, val, ver)
			}
		})
		return err
	})
}

// Entry is one entry of a base, as Merge takes it. A Deleted entry drops
// its key.
type Entry struct {
	Key     string
	Value   []byte
	Version seqno.Seq
	Deleted bool
}

// Merge returns the base of b's entries with ups put over them: an entry of
// ups replaces b's entry of its key, or joins b's entries when b has none,
// and a Deleted one drops b's entry of its key. ups must be in strictly
// ascending key order. The merge is one ascending pass through buildBase;
// when ups neither adds nor drops a key, the new base shares b's key region
// and builds only its values and versions. b stays as it was, for whoever
// still reads it.
//
// At most one replaced base waits on its finalizer per line of merges: when
// the base b was merged from still holds its mapping, Merge collects before
// it builds.
func (b *Base) Merge(ups []Entry) (*Base, error) {
	if len(ups) == 0 {
		return b, nil
	}
	if b != nil && b.prev != nil && !b.prev.Load() {
		runtime.GC()
	}
	keysOf := b
	for _, u := range ups {
		if u.Deleted || b.find(u.Key) < 0 {
			keysOf = nil
			break
		}
	}
	merged, err := buildBase(keysOf, func(put func(key, val []byte, ver seqno.Seq) error) error {
		var kb []byte
		var err error
		for i, j := 0, 0; err == nil && (i < b.Len() || j < len(ups)); {
			if j == len(ups) || i < b.Len() && string(b.keyAt(i)) < ups[j].Key {
				err = put(b.keyAt(i), b.value(i), b.version(i))
				i++
				continue
			}
			if i < b.Len() && string(b.keyAt(i)) == ups[j].Key {
				i++
			}
			if !ups[j].Deleted {
				kb = append(kb[:0], ups[j].Key...)
				err = put(kb, ups[j].Value, ups[j].Version)
			}
			j++
		}
		runtime.KeepAlive(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	if b != nil && merged != nil {
		merged.prev = b.valIx.unmapped
	}
	return merged, nil
}

// buildBase builds a base with a version per entry from an each that can
// fail, which a reopened store's scan and a merge need; an error from each
// or put ends the build with it. keysOf, when not nil, is a base whose keys
// the entries are, in order: the new base shares its key region.
func buildBase(keysOf *Base, each func(put func(key, val []byte, ver seqno.Seq) error) error) (*Base, error) {
	b := &Base{}
	var nk, nv int
	shared := true
	err := each(func(key, val []byte, ver seqno.Seq) error {
		if b.n == 0 {
			b.ver = ver
		}
		shared = shared && ver == b.ver
		b.n, nk, nv = b.n+1, nk+len(key), nv+len(val)
		return nil
	})
	if err != nil || b.n == 0 {
		return nil, err
	}
	if uint64(nk) > math.MaxUint32 || uint64(nv) > math.MaxUint32 {
		return nil, errArena
	}
	offs := offLen * (b.n + 1)
	if keysOf != nil {
		if keysOf.n != b.n {
			return nil, errPasses
		}
		b.keyIx, b.slots, b.keyOff, b.keys, b.shift = keysOf.keyIx, keysOf.slots, keysOf.keyOff, keysOf.keys, keysOf.shift
	} else {
		logSize := bits.Len(uint(2*b.n - 1)) // the table stays at most half full
		b.shift = uint8(64 - logSize)
		nslots := offLen << logSize
		b.keyIx = newRegion(nslots + offs + nk)
		idx := b.keyIx.mem
		b.slots, idx = idx[:nslots:nslots], idx[nslots:]
		b.keyOff, b.keys = idx[:offs:offs], idx[offs:]
	}
	nvers := 0
	if !shared {
		nvers = verLen * b.n
	}
	b.valIx = newRegion(offs + nvers)
	b.valOff = b.valIx.mem[:offs:offs]
	if !shared {
		b.vers = b.valIx.mem[offs:]
	}
	b.vals = make([]byte, 0, nv)
	i, end := 0, 0
	err = each(func(key, val []byte, ver seqno.Seq) error {
		if i == b.n || len(b.vals)+len(val) > nv || (shared && ver != b.ver) {
			return errPasses
		}
		switch {
		case keysOf != nil:
			if !bytes.Equal(key, b.keyAt(i)) {
				return errPasses
			}
		case end+len(key) > nk:
			return errPasses
		case i > 0:
			if c := bytes.Compare(key, b.keyAt(i-1)); c == 0 {
				return errBaseShape
			} else if c < 0 {
				return fmt.Errorf("statedb: base key %q after %q", key, b.keyAt(i-1))
			}
		}
		if keysOf == nil {
			end += copy(b.keys[end:], key)
			putU32(b.keyOff, i+1, uint32(end))
		}
		b.vals = append(b.vals, val...)
		if !shared {
			ver.AppendTo(b.vers[verLen*i : verLen*i]) // in place: the slot has room
		}
		i++
		putU32(b.valOff, i, uint32(len(b.vals)))
		return nil
	})
	if err == nil && (i != b.n || len(b.vals) != nv || (keysOf == nil && end != nk)) {
		err = errPasses
	}
	if err != nil {
		return nil, err
	}
	if keysOf != nil {
		runtime.KeepAlive(keysOf)
		return b, nil
	}
	mask := uint64(1)<<(64-b.shift) - 1
	for i := 0; i < b.n; i++ {
		p := probe(b.keyAt(i), b.shift)
		for u32(b.slots, int(p)) != 0 {
			p = (p + 1) & mask
		}
		putU32(b.slots, int(p), uint32(i+1))
	}
	return b, nil
}

// probe is key's first slot in a table of 2^(64-shift): FNV-1a, spread over
// the table by a Fibonacci multiply so the top bits pick the slot.
func probe[K string | []byte](key K, shift uint8) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return (h * 0x9e3779b97f4a7c15) >> shift
}

// keyAt is entry i's key, in place: it aliases the index, so the caller
// keeps b alive while it reads it and never hands it out.
func (b *Base) keyAt(i int) []byte {
	lo, hi := pair(b.keyOff, i)
	return b.keys[lo:hi:hi]
}

// Len returns the number of entries.
func (b *Base) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// find returns key's entry number, or -1.
func (b *Base) find(key string) int {
	if b == nil {
		return -1
	}
	mask := uint64(1)<<(64-b.shift) - 1
	found := -1
	for p := probe(key, b.shift); ; p = (p + 1) & mask {
		s := u32(b.slots, int(p))
		if s == 0 {
			break
		}
		if string(b.keyAt(int(s-1))) == key {
			found = int(s - 1)
			break
		}
	}
	runtime.KeepAlive(b)
	return found
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

// Key returns a copy of entry i's key; entries are numbered in ascending
// key order.
func (b *Base) Key(i int) string {
	k := string(b.keyAt(i))
	runtime.KeepAlive(b)
	return k
}

// EachKey calls fn with every key in ascending order. The key is the base's
// own memory: valid only during the call, never to be modified or kept —
// string(key) copies it, and a map index or comparison with string(key)
// reads it without a copy.
func (b *Base) EachKey(fn func(key []byte)) {
	b.walk(0, b.Len(), func(_ int, key []byte) bool { fn(key); return true })
}

// walk calls fn with entries lo to hi-1 in order, each key in place, until
// fn returns false.
func (b *Base) walk(lo, hi int, fn func(i int, key []byte) bool) {
	for i := lo; i < hi && fn(i, b.keyAt(i)); i++ {
	}
	runtime.KeepAlive(b)
}

// value is entry i's value, capped so an append cannot reach the next one.
func (b *Base) value(i int) []byte {
	lo, hi := pair(b.valOff, i)
	runtime.KeepAlive(b)
	return b.vals[lo:hi:hi]
}

func (b *Base) version(i int) seqno.Seq {
	if b.vers == nil {
		return b.ver
	}
	return b.versionAt(i)
}

// versionAt is entry i's own version, apart from version so that the
// shared version of a genesis is read inline.
func (b *Base) versionAt(i int) seqno.Seq {
	// The index holds whole versions, so the decode cannot fail.
	v, _ := seqno.FromBytes(b.vers[verLen*i : verLen*(i+1)])
	runtime.KeepAlive(b)
	return v
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
	lo = sort.Search(n, func(i int) bool { return string(b.keyAt(i)) >= start })
	hi = n
	if end != "" {
		hi = lo + sort.Search(n-lo, func(i int) bool { return string(b.keyAt(lo+i)) >= end })
	}
	runtime.KeepAlive(b)
	return lo, hi
}
