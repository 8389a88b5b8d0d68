package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record format, shared by the log and the snapshot, one record per batch:
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//	payload = opCount uvarint | opCount × (op byte | keyLen uvarint | key | valLen uvarint | val)
//
// The checksum covers the whole batch, so replay yields a batch entirely or
// not at all. A payload is never empty (it holds at least its op count), so
// a zero length marks the end of the written records as surely as a short
// read or a checksum mismatch: all three are the torn tail a crash leaves,
// and replay stops there. A record whose checksum holds but whose payload
// does not parse is reported as an error.

const (
	walOpPut    byte = 1
	walOpDelete byte = 2
	// recordHead is the room a record reserves ahead of its ops: the
	// header, and the op count, whose length is known only at the end.
	recordHead = 8 + binary.MaxVarintLen64
)

// errTornTail internally marks the end of the intact records during replay;
// errMalformed a record whose checksum holds but whose payload does not parse.
var errTornTail, errMalformed = errors.New("kvstore: torn WAL tail"), errors.New("malformed batch")

// record encodes one batch: ops are appended behind recordHead, and bytes
// fills in the count and the header in front of them.
type record struct {
	buf []byte
	n   int // ops appended
}

// reset empties r for the next record, keeping its buffer.
func (r *record) reset() {
	r.buf, r.n = append(r.buf[:0], make([]byte, recordHead)...), 0
}

func (r *record) add(del bool, key, value []byte) {
	kind := walOpPut
	if del {
		kind, value = walOpDelete, nil
	}
	r.buf = append(r.buf, kind)
	r.buf = binary.AppendUvarint(r.buf, uint64(len(key)))
	r.buf = append(r.buf, key...)
	r.buf = binary.AppendUvarint(r.buf, uint64(len(value)))
	r.buf = append(r.buf, value...)
	r.n++
}

// bytes returns the whole record: header, op count and ops.
func (r *record) bytes() []byte {
	var count [binary.MaxVarintLen64]byte
	c := binary.PutUvarint(count[:], uint64(r.n))
	start := recordHead - c - 8
	copy(r.buf[start+8:], count[:c])
	payload := r.buf[start+8:]
	binary.LittleEndian.PutUint32(r.buf[start:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(r.buf[start+4:], uint32(len(payload)))
	return r.buf[start:]
}

// logFile is what the log needs of its file: the seam a test fails a call
// through.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// wal appends each batch with one write call on the file: nothing is held
// back in user space, so a killed process loses no batch whose append
// returned (a machine crash still needs sync), and nothing of a batch is
// kept once its append returns.
type wal struct {
	path string
	f    logFile
	size int64 // bytes in the file, all of them whole records
	sync bool
	// broken is set when a failed append could not be cut back off the
	// file: every later append is refused until the store is reopened, whose
	// Open cuts the torn record off.
	broken error
}

// openWAL opens the log at path for appending after its first intact bytes
// — what replay returned, 0 for a new file. A torn tail beyond them is cut
// off: left in place it would swallow every record appended after it at the
// next replay.
func openWAL(path string, intact int64, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: trim %s: %w", path, err)
	}
	return &wal{path: path, f: f, size: intact, sync: sync}, nil
}

// append writes ops as one record. A record that fails to reach the file
// whole, or to sync, is cut back off it before the error returns, so the
// next batch lands right after the last acknowledged one.
func (w *wal) append(ops []BatchOp) error {
	if w.broken != nil {
		return w.broken
	}
	size := recordHead
	for _, op := range ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	// The record's buffer is the batch's own: a reused one would pin the
	// largest batch's bytes for the store's life.
	r := record{buf: make([]byte, recordHead, size)}
	for _, op := range ops {
		r.add(op.Delete, op.Key, op.Value)
	}
	buf := r.bytes()
	_, err := w.f.Write(buf)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	if err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = fmt.Errorf("kvstore: a failed append left a torn record (%v) that could not be cut off: %w", err, terr)
		}
		return err
	}
	w.size += int64(len(buf))
	return nil
}

// rotate replaces the file with an empty one and makes that durable. The old
// file is unlinked, not truncated: a scan still reading it keeps what it
// opened. A crash between the two leaves no log, which Open reads as an
// empty one.
func (w *wal) rotate() error {
	if err := os.Remove(w.path); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.broken = fmt.Errorf("kvstore: recreate %s: %w", w.path, err)
		return w.broken
	}
	old := w.f
	w.f, w.size = f, 0
	_ = old.Close() // unlinked; nothing is written through it again
	return SyncDir(filepath.Dir(w.path))
}

func (w *wal) close() error { return w.f.Close() }

// recordReader reads a record file front to back, one batch at a time.
type recordReader struct {
	r       *bufio.Reader
	payload []byte
	at      int64 // the file offset of the next record
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next reads the next record and calls op with each of its ops in order, and
// the file offset of the op's value; key and value alias the record and are
// valid until op returns. next returns io.EOF after the last record,
// errTornTail at a torn one, and op's first error.
func (rr *recordReader) next(op func(del bool, key, value []byte, valAt int64) error) error {
	var hdr [8]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return errTornTail
	}
	size := binary.LittleEndian.Uint32(hdr[4:8])
	if size == 0 { // zero fill: crc32 of nothing is 0, so the checksum would hold
		return errTornTail
	}
	if cap(rr.payload) < int(size) {
		// Snapshot records all run a little over snapshotRecordBytes: the
		// slack spares a new buffer for each one a few bytes longer.
		rr.payload = make([]byte, size, size+size/8)
	}
	p := rr.payload[:size]
	if _, err := io.ReadFull(rr.r, p); err != nil || crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return errTornTail
	}
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return errMalformed
	}
	base := rr.at + int64(len(hdr))
	rest := p[n:]
	// field cuts one length-prefixed byte string off rest.
	field := func() (out []byte, at int64, ok bool) {
		size, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < size {
			return nil, 0, false
		}
		at = base + int64(len(p)-len(rest)+n)
		out, rest = rest[n:n+int(size)], rest[n+int(size):]
		return out, at, true
	}
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return errMalformed
		}
		del := rest[0] == walOpDelete
		rest = rest[1:]
		key, _, okKey := field()
		value, at, okVal := field()
		if !okKey || !okVal {
			return errMalformed
		}
		if err := op(del, key, value, at); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return errMalformed
	}
	rr.at = base + int64(len(p))
	return nil
}

// all reads every record to the file's end, calling op for each op; a torn
// record is an error here.
func (rr *recordReader) all(op func(del bool, key, value []byte, valAt int64) error) error {
	for {
		if err := rr.next(op); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// replay reads the record file at path to its first torn record and returns
// how many bytes the intact records span and how many the file holds. A
// missing file is an empty one; mid-file corruption is an error.
func replay(path string) (intact, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	rr := newRecordReader(f)
	skip := func(bool, []byte, []byte, int64) error { return nil }
	for n := 0; ; n++ {
		err := rr.next(skip)
		if err == io.EOF || err == errTornTail {
			// A crash mid-append leaves a truncated tail; everything before
			// it is intact, so recovery proceeds with what we have.
			return rr.at, info.Size(), nil
		}
		if err != nil {
			return rr.at, info.Size(), fmt.Errorf("kvstore: %s record %d: %w", path, n, err)
		}
	}
}
