package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
)

// errTornTail internally marks the end of the intact records during replay;
// errMalformed a record whose checksum holds but whose payload does not parse.
var errTornTail, errMalformed = errors.New("kvstore: torn WAL tail"), errors.New("malformed batch")

// wal appends each batch with one write call on the file: nothing is held
// back in user space, so a killed process loses no batch whose append
// returned (a machine crash still needs sync), and nothing of a batch is
// kept once its append returns.
type wal struct {
	f    *os.File
	size int64 // bytes in the file
	sync bool
}

// openWAL opens the record file at path for appending after its first
// intact bytes — what replay returned, 0 for a new file. A torn tail beyond
// them is cut off: left in place it would swallow every record appended
// after it at the next replay.
func openWAL(path string, intact int64, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: trim %s: %w", path, err)
	}
	return &wal{f: f, size: intact, sync: sync}, nil
}

func (w *wal) append(ops []BatchOp) error {
	size := 8 + binary.MaxVarintLen64 // header, filled in below, and op count
	for _, op := range ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	buf := binary.AppendUvarint(make([]byte, 8, size), uint64(len(ops)))
	for _, op := range ops {
		kind := walOpPut
		if op.Delete {
			kind, op.Value = walOpDelete, nil
		}
		buf = append(buf, kind)
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[8:]))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(buf)-8))
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// truncate empties the file; the next append lands at offset 0.
func (w *wal) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replay streams every intact batch of the record file at path into fn (when
// non-nil), in order, and returns how many bytes they span and how many the
// file holds. A batch's keys and values are valid only until fn returns:
// every record is read into one buffer. A missing file is an empty one.
// Replay stops at a torn tail; mid-file corruption is an error.
func replay(path string, fn func(ops []BatchOp)) (intact, size int64, err error) {
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
	r := bufio.NewReader(f)
	var payload []byte
	for n := 0; ; n++ {
		ops, recSize, err := readWALRecord(r, &payload)
		if err == io.EOF || err == errTornTail {
			// A crash mid-append leaves a truncated tail; everything before
			// it is intact, so recovery proceeds with what we have.
			return intact, info.Size(), nil
		}
		if err != nil {
			return intact, info.Size(), fmt.Errorf("kvstore: %s record %d: %w", path, n, err)
		}
		if fn != nil {
			fn(ops)
		}
		intact += recSize
	}
}

// readWALRecord reads one batch into *payload, growing it as needed, and
// reports the bytes it spans; its keys and values alias *payload.
func readWALRecord(r *bufio.Reader, payload *[]byte) ([]BatchOp, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornTail
	}
	size := binary.LittleEndian.Uint32(hdr[4:8])
	if size == 0 { // zero fill: crc32 of nothing is 0, so the checksum would hold
		return nil, 0, errTornTail
	}
	if cap(*payload) < int(size) {
		*payload = make([]byte, size)
	}
	p := (*payload)[:size]
	if _, err := io.ReadFull(r, p); err != nil || crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return nil, 0, errTornTail
	}
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return nil, 0, errMalformed
	}
	rest := p[n:]
	// field cuts one length-prefixed byte string off rest.
	field := func() (out []byte, ok bool) {
		size, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < size {
			return nil, false
		}
		out, rest = rest[n:n+int(size)], rest[n+int(size):]
		return out, true
	}
	ops := make([]BatchOp, count)
	for i := range ops {
		if len(rest) == 0 {
			return nil, 0, errMalformed
		}
		ops[i].Delete, rest = rest[0] == walOpDelete, rest[1:]
		var okKey, okVal bool
		ops[i].Key, okKey = field()
		ops[i].Value, okVal = field()
		if !okKey || !okVal {
			return nil, 0, errMalformed
		}
	}
	if len(rest) != 0 {
		return nil, 0, errMalformed
	}
	return ops, int64(len(hdr) + len(p)), nil
}
