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

// Write-ahead log format, one record per batch (a Put or Delete is a batch
// of one):
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//	payload = opCount uvarint | opCount × (op byte | keyLen uvarint | key | valLen uvarint | val)
//
// The checksum covers the whole batch, so replay yields a batch entirely or
// not at all. A torn tail (short read or checksum mismatch on the final
// record) is tolerated during replay, matching the crash the WAL exists to
// survive; corruption anywhere earlier is reported as an error.

const (
	walOpPut    byte = 1
	walOpDelete byte = 2
)

// errTornTail internally marks a truncated final record during replay;
// errMalformed a record whose checksum holds but whose payload does not parse.
var errTornTail, errMalformed = errors.New("kvstore: torn WAL tail"), errors.New("malformed batch")

// wal appends each batch with one write call on the file: nothing is held
// back in user space, so a killed process loses no batch whose append
// returned (a machine crash still needs sync).
type wal struct {
	f    *os.File
	buf  []byte // record under construction, reused across appends
	sync bool
}

// openWAL opens the log at path for appending after its first intact
// bytes — what replayWAL returned, 0 for a new log. A torn tail beyond them
// is cut off: left in place it would swallow every record appended after it
// at the next replay.
func openWAL(path string, intact int64, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: trim wal: %w", err)
	}
	return &wal{f: f, sync: sync}, nil
}

func (w *wal) append(ops []BatchOp) error {
	buf := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
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
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replayWAL streams every intact batch of the log at path into fn, in
// order, and returns how many bytes they span. A torn final record is
// silently dropped; mid-log corruption is an error.
func replayWAL(path string, fn func(ops []BatchOp)) (intact int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	for n := 0; ; n++ {
		ops, size, err := readWALRecord(r)
		if err == io.EOF || err == errTornTail {
			// A crash mid-append leaves a truncated tail; everything before
			// it is intact, so recovery proceeds with what we have.
			return intact, nil
		}
		if err != nil {
			return intact, fmt.Errorf("kvstore: wal record %d: %w", n, err)
		}
		fn(ops)
		intact += size
	}
}

// readWALRecord reads one batch and reports the bytes it spans; its keys
// and values alias the payload.
func readWALRecord(r *bufio.Reader) ([]BatchOp, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornTail
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[4:8]))
	if _, err := io.ReadFull(r, payload); err != nil || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return nil, 0, errTornTail
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)) {
		return nil, 0, errMalformed
	}
	rest := payload[n:]
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
	return ops, int64(len(hdr) + len(payload)), nil
}
