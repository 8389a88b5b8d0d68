package sched

import (
	"fabricsharp/internal/core"
	"fabricsharp/internal/metrics"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/seqno"
)

// FoccS adapts the standard serializable-OCC certifier of Cahill et al. [10]
// to the ordering phase, per Section 5.1: an incoming transaction is
// immediately aborted when it
//
//   - write-write conflicts with a concurrent transaction (first-committer-
//     wins under snapshot isolation), or
//   - completes a dangerous structure — two consecutive concurrent
//     read-write conflicts with at least one anti-rw.
//
// Dependency-edge bookkeeping exploits that Focc-s never reorders: commit
// order is arrival (FIFO) order. An rw edge created when the *reader*
// arrives points at a writer that is committed or arrived earlier — the
// writer commits first, an anti-rw. An rw edge created when the *writer*
// arrives points from a reader that commits first — a c-rw. Per Fekete et
// al.'s theorem, every unserializable snapshot-isolation history contains a
// pivot with an incoming rw and an outgoing *anti*-rw, so certification
// aborts an arrival whenever it would give some transaction both flags.
//
// The committed and pending indices share one core.KeyState per record key,
// so certification resolves each key with one map lookup.
//
// Nothing happens on block formation ("Focc-s does nothing on block
// formation"), and since every admitted transaction is certified
// serializable, the validation phase skips the MVCC check.
type FoccS struct {
	maxSpan   uint64
	keys      core.MemIndex[*protocol.Transaction] // CW, CR, PW, PR per key
	flags     map[protocol.TxID]*rwFlags
	endBlock  map[protocol.TxID]uint64 // commit block, for flag pruning
	pending   []*protocol.Transaction
	nextBlock uint64
	timing    Timing

	// Arrival scratch (single-goroutine, reused to stay allocation-free).
	rbuf, wbuf []*foccsKey
	idbuf      []protocol.TxID
	outWriters []protocol.TxID
	inReaders  []protocol.TxID
}

// foccsKey is one record key's state in Focc-s's index.
type foccsKey = core.KeyState[*protocol.Transaction]

// rwFlags carries the certifier's conflict markers: in is an incoming rw
// edge (someone read a key this transaction overwrites); outAnti is an
// outgoing anti-rw edge (this transaction read a key whose overwriting
// transaction commits first).
type rwFlags struct {
	in      bool
	outAnti bool
}

// NewFoccS returns the Focc-s scheduler.
func NewFoccS(opts Options) *FoccS {
	if opts.MaxSpan == 0 {
		opts.MaxSpan = 10
	}
	return &FoccS{
		maxSpan:   opts.MaxSpan,
		flags:     map[protocol.TxID]*rwFlags{},
		endBlock:  map[protocol.TxID]uint64{},
		nextBlock: 1,
	}
}

// System implements Scheduler.
func (f *FoccS) System() System { return SystemFoccS }

// lookup appends the state of every key to dst.
func (f *FoccS) lookup(dst []*foccsKey, keys []string) []*foccsKey {
	for _, k := range keys {
		dst = append(dst, f.keys.Get(k))
	}
	return dst
}

// OnArrival implements Scheduler: the certification step.
func (f *FoccS) OnArrival(tx *protocol.Transaction) (protocol.ValidationCode, error) {
	w := metrics.StartWatch()
	code := f.certify(tx)
	f.timing.Arrivals++
	f.timing.ArrivalNS += w.ElapsedNS()
	return code, nil
}

func (f *FoccS) certify(tx *protocol.Transaction) protocol.ValidationCode {
	if f.nextBlock > f.maxSpan && tx.SnapshotBlock <= f.nextBlock-f.maxSpan {
		return protocol.AbortStaleSnapshot
	}
	startTS := tx.StartTS()
	f.rbuf = f.lookup(f.rbuf[:0], tx.RWSet.ReadKeys())
	f.wbuf = f.lookup(f.wbuf[:0], tx.RWSet.WriteKeys())

	// Rule 1: concurrent write-write conflict => abort (the prevention
	// whose cost Figure 11 charts as the write-hot ratio grows).
	for _, k := range f.wbuf {
		if len(k.PW) > 0 {
			return protocol.AbortConcurrentWW
		}
		f.idbuf = k.CW.After(f.idbuf[:0], startTS)
		if len(f.idbuf) > 0 {
			return protocol.AbortConcurrentWW
		}
	}

	// Outgoing anti-rw edges: tx reads k, a concurrent transaction that
	// commits first (already committed after tx's snapshot, or pending and
	// ahead in FIFO order) overwrites k.
	outWriters := f.outWriters[:0]
	for _, k := range f.rbuf {
		outWriters = k.CW.After(outWriters, startTS)
		for _, w := range k.PW {
			outWriters = append(outWriters, w.ID)
		}
	}
	// Incoming rw edges: a concurrent earlier transaction read a key tx
	// overwrites (it commits first: c-rw into tx).
	inReaders := f.inReaders[:0]
	for _, k := range f.wbuf {
		inReaders = k.CR.After(inReaders, startTS)
		for _, r := range k.PR {
			inReaders = append(inReaders, r.ID)
		}
	}
	f.outWriters, f.inReaders = outWriters, inReaders

	// Rule 2, the dangerous structure. tx itself as pivot: its outgoing
	// edges are all anti-rw, so in+out suffices ...
	if len(inReaders) > 0 && len(outWriters) > 0 {
		return protocol.AbortDangerousStructure
	}
	// ... or a neighbouring writer becoming one: tx's anti-rw out edge is
	// W's incoming rw; W is dangerous if W already has an anti-rw out.
	for _, w := range outWriters {
		if fl := f.flags[w]; fl != nil && fl.outAnti {
			return protocol.AbortDangerousStructure
		}
	}
	// Readers feeding into tx gain only a c-rw out edge (they commit
	// first), which cannot complete a dangerous structure.

	// Admit: install flags and pending indices.
	fl := &rwFlags{}
	for _, w := range outWriters {
		fl.outAnti = true
		if o := f.flags[w]; o != nil {
			o.in = true
		}
	}
	if len(inReaders) > 0 {
		fl.in = true
	}
	f.flags[tx.ID] = fl
	for _, k := range f.rbuf {
		k.PR = append(k.PR, tx)
	}
	for _, k := range f.wbuf {
		k.PW = append(k.PW, tx)
	}
	f.pending = append(f.pending, tx)
	return protocol.Valid
}

// OnBlockFormation implements Scheduler: FIFO emission, bookkeeping of the
// committed indices, and window pruning.
func (f *FoccS) OnBlockFormation() (FormationResult, error) {
	if len(f.pending) == 0 {
		return FormationResult{Block: f.nextBlock}, nil
	}
	w := metrics.StartWatch()
	block := f.nextBlock
	res := FormationResult{Block: block, Ordered: f.pending}
	for i, tx := range f.pending {
		seq := seqno.Commit(block, uint32(i+1))
		for _, k := range f.lookup(f.wbuf[:0], tx.RWSet.WriteKeys()) {
			k.CW.Put(seq, tx.ID)
			k.PW = k.PW[:0]
		}
		for _, k := range f.lookup(f.rbuf[:0], tx.RWSet.ReadKeys()) {
			k.CR.Put(seq, tx.ID)
			k.PR = k.PR[:0]
		}
		f.endBlock[tx.ID] = block
	}
	f.pending = nil
	f.sealBlock()
	f.timing.Formations++
	f.timing.FormationNS += w.ElapsedNS()
	return res, nil
}

// sealBlock consumes the next block number and prunes the window.
func (f *FoccS) sealBlock() {
	f.nextBlock++
	if f.nextBlock > f.maxSpan {
		h := f.nextBlock - f.maxSpan
		f.keys.PruneBefore(h)
		// A committed transaction can gain edges only while some arrival's
		// snapshot predates its commit; beyond the max-span horizon none
		// can, so its flags are garbage.
		//sharp:orderinvariant each entry's delete reads only that entry, so the pruned maps are the same in any visit order
		for id, end := range f.endBlock {
			if end < h {
				delete(f.endBlock, id)
				delete(f.flags, id)
			}
		}
	}
}

// OnBlockCommitted implements Scheduler: certification already decided what
// formation ordered; a rescued tail transaction joins the committed indices
// here as a transaction whose snapshot is its own commit point — concurrent
// with nothing before it, so it starts with neither flag and can never gain
// outAnti, but a later arrival with an older snapshot that read what it
// overwrote (or overwrites what it read) finds it in CW (CR) and certifies
// against it like any committed transaction.
func (f *FoccS) OnBlockCommitted(block uint64, txs []*protocol.Transaction, codes []protocol.ValidationCode) {
	if block == f.nextBlock {
		f.sealBlock() // a tail-only cut: formation ordered nothing
	}
	forEachRescued(block, txs, codes, func(tx *protocol.Transaction, at seqno.Seq) {
		for _, k := range f.lookup(f.wbuf[:0], tx.RWSet.WriteKeys()) {
			k.CW.Put(at, tx.ID)
		}
		for _, k := range f.lookup(f.rbuf[:0], tx.RWSet.ReadKeys()) {
			k.CR.Put(at, tx.ID)
		}
		f.flags[tx.ID] = &rwFlags{}
		f.endBlock[tx.ID] = block
	})
}

// NeedsMVCCValidation implements Scheduler: admitted transactions are
// certified serializable.
func (f *FoccS) NeedsMVCCValidation() bool { return false }

// PendingCount implements Scheduler.
func (f *FoccS) PendingCount() int { return len(f.pending) }

// ResidentKeys implements Scheduler.
func (f *FoccS) ResidentKeys() int { return f.keys.Len() }

// Timing implements Scheduler.
func (f *FoccS) Timing() Timing { return f.timing }
