package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// sumLen is the width of a frame's checksum: eight lowercase hex digits
// of the payload's CRC-32C.
const sumLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame marks bytes that are not one intact frame: too short, not
// newline-terminated, or failing the checksum.
var ErrBadFrame = errors.New("durable: bad frame")

var errNewline = errors.New("durable: log record contains a newline")

// AppendFrame appends payload to dst as one checksummed frame: the
// payload's CRC-32C as eight lowercase hex digits, a space, the payload
// bytes verbatim, and a newline. It is the single on-disk integrity
// envelope — every Log record and every sweep cache object is one frame.
func AppendFrame(dst, payload []byte) []byte {
	sum := checksum(payload)
	dst = append(dst, sum[:]...)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// DecodeFrame verifies one frame, trailing newline included, and returns
// its payload (aliasing frame). The encoding is canonical: DecodeFrame
// accepts exactly the bytes AppendFrame produces, so a decoded payload
// re-frames to the identical bytes (FuzzWALRecord pins that).
func DecodeFrame(frame []byte) ([]byte, error) {
	n := len(frame)
	if n < sumLen+2 || frame[sumLen] != ' ' || frame[n-1] != '\n' {
		return nil, ErrBadFrame
	}
	payload := frame[sumLen+1 : n-1]
	if want := checksum(payload); !bytes.Equal(frame[:sumLen], want[:]) {
		return nil, fmt.Errorf("%w: checksum %q, want %q", ErrBadFrame, frame[:sumLen], want[:])
	}
	return payload, nil
}

// checksum renders payload's CRC-32C as lowercase hex.
func checksum(payload []byte) [sumLen]byte {
	var sum [4]byte
	var out [sumLen]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	hex.Encode(out[:], sum[:])
	return out
}

// Log is an append-only file of framed records, one per line: the job
// write-ahead log of bgpd and the sweep checkpoint journal both sit on
// it. Open replays the intact records; a line that fails its frame — the
// tail a kill cut short, a bit flip, a record from an older format — is
// counted in Dropped and skipped, never fatal. Append writes a record in
// one write call; it is durable against a process kill once Append
// returns and against a machine crash once Sync returns. The log is safe
// for concurrent use.
type Log struct {
	fsys FS
	path string

	mu      sync.Mutex
	f       File
	bytes   int64
	dropped int
	// torn is set while the file may end mid-line (a torn tail found on
	// open, or a failed write); the next append first terminates it so
	// the new record does not fuse with the fragment.
	torn bool
}

// Open opens (creating if needed) the log at path and returns the
// payloads of its intact records in append order.
func Open(fsys FS, path string) (*Log, [][]byte, error) {
	if path == "" {
		return nil, nil, errors.New("durable: empty log path")
	}
	fsys = OrOS(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: open log: %w", err)
	}
	l := &Log{fsys: fsys, path: path}
	data, err := fsys.ReadFile(path)
	if err != nil && !IsNotExist(err) {
		return nil, nil, fmt.Errorf("durable: open log: %w", err)
	}
	l.bytes = int64(len(data))
	var records [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			l.dropped++
			l.torn = true
			break
		}
		line := data[:i+1]
		data = data[i+1:]
		if i == 0 {
			continue // blank line left by a terminated fragment
		}
		p, err := DecodeFrame(line)
		if err != nil {
			l.dropped++
			continue
		}
		records = append(records, p)
	}
	if err := l.reopen(); err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// reopen opens the file for appending; the caller holds l.mu or owns l.
func (l *Log) reopen() error {
	f, err := l.fsys.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open log: %w", err)
	}
	l.f = f
	return nil
}

// Bytes returns the log's on-disk size as of the last open, compaction,
// or append.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Dropped returns how many torn or corrupt lines Open skipped.
func (l *Log) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Append writes payload as one framed record. The payload must not
// contain a newline (compact JSON never does).
func (l *Log) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return errNewline
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("durable: append to closed log")
	}
	buf := make([]byte, 0, len(payload)+sumLen+3)
	if l.torn {
		buf = append(buf, '\n')
	}
	buf = AppendFrame(buf, payload)
	if _, err := l.f.Write(buf); err != nil {
		l.torn = true
		return fmt.Errorf("durable: log append: %w", err)
	}
	l.torn = false
	l.bytes += int64(len(buf))
	return nil
}

// Sync flushes every appended record to stable storage (fsync).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("durable: sync closed log")
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: log sync: %w", err)
	}
	return nil
}

// Compact atomically rewrites the log to hold exactly payloads and
// reopens it for appending. A crash mid-compaction leaves the old log
// or the new one, never a mix.
func (l *Log) Compact(payloads [][]byte) error {
	var buf []byte
	for _, p := range payloads {
		if bytes.IndexByte(p, '\n') >= 0 {
			return errNewline
		}
		buf = AppendFrame(buf, p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("durable: compact closed log")
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("durable: compact log: %w", err)
	}
	if err := WriteFileAtomic(l.fsys, l.path, buf, true); err != nil {
		return fmt.Errorf("durable: compact log: %w", err)
	}
	l.bytes = int64(len(buf))
	l.torn = false
	return l.reopen()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
