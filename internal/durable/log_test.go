package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal", "jobs.jsonl")
}

func record(i int) []byte {
	return []byte(fmt.Sprintf(`{"type":"job","job":"job-%06d"}`, i))
}

// openLog opens the log at path on the real filesystem and fails the
// test on error.
func openLog(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	l, recs, err := Open(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, recs
}

// wantRecords checks that recs are exactly record(i) for each i in ids.
func wantRecords(t *testing.T, recs [][]byte, ids ...int) {
	t.Helper()
	if len(recs) != len(ids) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(ids))
	}
	for k, i := range ids {
		if !bytes.Equal(recs[k], record(i)) {
			t.Errorf("record %d = %s, want %s", k, recs[k], record(i))
		}
	}
}

// TestWALAppendRecover is the core durability loop: append records,
// reopen, and get the exact payloads back in append order.
func TestWALAppendRecover(t *testing.T) {
	path := logPath(t)
	l, recs := openLog(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != info.Size() {
		t.Errorf("Bytes() = %d, file has %d", l.Bytes(), info.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openLog(t, path)
	wantRecords(t, recs, 0, 1, 2)
	if err := l2.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	_ = l2.Close()
	_, recs = openLog(t, path)
	wantRecords(t, recs, 0, 1, 2, 3)
}

// TestWALToleratesTornTail: a kill mid-append leaves a torn final line;
// recovery keeps every whole record, counts the tail as dropped, and the
// next append does not fuse with the fragment.
func TestWALToleratesTornTail(t *testing.T) {
	path := logPath(t)
	l, _ := openLog(t, path)
	if err := l.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	full := AppendFrame(nil, record(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, recs := openLog(t, path)
	wantRecords(t, recs, 0)
	if l2.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1 (the torn tail)", l2.Dropped())
	}
	if err := l2.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	_ = l2.Close()
	l3, recs := openLog(t, path)
	wantRecords(t, recs, 0, 2)
	if l3.Dropped() != 1 {
		t.Errorf("dropped after append = %d, want 1 (the fragment alone)", l3.Dropped())
	}
}

// TestWALRejectsTamperedRecord: one changed byte inside a frame fails
// its checksum, and Open drops that line while keeping its neighbours.
func TestWALRejectsTamperedRecord(t *testing.T) {
	frame := AppendFrame(nil, []byte(`{"trials":3}`))
	if _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("pristine frame failed decode: %v", err)
	}
	tampered := bytes.Replace(frame, []byte(`3`), []byte(`4`), 1)
	if _, err := DecodeFrame(tampered); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("tampered frame decoded: %v", err)
	}

	path := logPath(t)
	var file []byte
	for i := 0; i < 3; i++ {
		file = AppendFrame(file, record(i))
	}
	file = bytes.Replace(file, []byte("job-000001"), []byte("job-000009"), 1)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openLog(t, path)
	wantRecords(t, recs, 0, 2)
	if l.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1 (the tampered line)", l.Dropped())
	}
}

// TestWALCompact: compaction atomically rewrites the log to the given
// records, the file keeps accepting appends, and a reopen sees exactly
// the compacted records plus the new ones.
func TestWALCompact(t *testing.T) {
	path := logPath(t)
	l, _ := openLog(t, path)
	for i := 0; i < 10; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Bytes()
	if err := l.Compact([][]byte{record(3), record(7)}); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() >= before {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before, l.Bytes())
	}
	if err := l.Append(record(10)); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()

	l2, recs := openLog(t, path)
	wantRecords(t, recs, 3, 7, 10)
	if l2.Dropped() != 0 {
		t.Errorf("compacted log dropped %d lines", l2.Dropped())
	}
	if err := l2.Compact([][]byte{[]byte("a\nb")}); err == nil {
		t.Error("Compact accepted a record containing a newline")
	}
}

// TestWALAppendSurfacesFaults: ENOSPC and EIO on the append path come
// back as structured errors, and a record whose write failed is not
// replayed after reopen (table-driven over FaultFS schedules).
func TestWALAppendSurfacesFaults(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		errno error
	}{
		{"enospc-on-write", Fault{Op: OpWrite, Seq: 1, Kind: FaultENOSPC}, syscall.ENOSPC},
		{"eio-on-write", Fault{Op: OpWrite, Seq: 1, Kind: FaultEIO}, syscall.EIO},
		{"eio-on-sync", Fault{Op: OpSync, Seq: 1, Kind: FaultEIO}, syscall.EIO},
		{"torn-write", Fault{Op: OpWrite, Seq: 1, Kind: FaultTorn, TornAt: 5}, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := logPath(t)
			l, _, err := Open(NewFaultFS(nil, []Fault{tc.fault}), path)
			if err != nil {
				t.Fatal(err)
			}
			appendSync := func(i int) error {
				if err := l.Append(record(i)); err != nil {
					return err
				}
				return l.Sync()
			}
			if err := appendSync(0); err != nil {
				t.Fatalf("first append: %v", err)
			}
			if err := appendSync(1); !errors.Is(err, tc.errno) {
				t.Fatalf("faulted append error = %v, want %v", err, tc.errno)
			}
			// The log stays usable after a failed append.
			if err := appendSync(2); err != nil {
				t.Fatalf("append after fault: %v", err)
			}
			_ = l.Close()

			// A failed *write* leaves nothing decodable (torn bytes fail
			// the frame). A failed *sync* is the one ambiguous case: the
			// line reached the OS, so it may legally reappear — the caller
			// was told the append failed.
			_, recs := openLog(t, path)
			if tc.fault.Op == OpSync {
				wantRecords(t, recs, 0, 1, 2)
			} else {
				wantRecords(t, recs, 0, 2)
			}
		})
	}
}

// TestWALCrashMidAppendRecovers: a scripted crash-point panic between
// write and fsync models the worst kill; reopening the log finds every
// record whose Append returned.
func TestWALCrashMidAppendRecovers(t *testing.T) {
	path := logPath(t)
	l, _, err := Open(NewFaultFS(nil, []Fault{{Op: OpSync, Seq: 1, Kind: FaultCrash}}), path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var ce *CrashError
		func() {
			defer func() { ce = RecoverCrash(recover()) }()
			if err := l.Append(record(i)); err != nil {
				t.Fatal(err)
			}
			_ = l.Sync()
		}()
		if (ce != nil) != (i == 1) || (ce != nil && ce.Op != OpSync) {
			t.Fatalf("append %d: crash = %+v, want a sync-point crash on the second", i, ce)
		}
	}
	// The "process" died without Close; the OS buffer survives, so both
	// written records replay.
	_, recs := openLog(t, path)
	wantRecords(t, recs, 0, 1)
}

// TestEncodeDecodeRoundTrip pins the frame codec: decode(encode(p)) is
// byte-identical for any payload — empty, binary, or newline-bearing
// (cache objects are single frames and may hold any bytes) — and the
// parent's unframed JSON lines are rejected.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range []string{"", "x", `{"trials":4,"executed":1}`, "a\nb", "\x00\xff"} {
		got, err := DecodeFrame(AppendFrame(nil, []byte(p)))
		if err != nil || string(got) != p {
			t.Errorf("round trip of %q = %q, %v", p, got, err)
		}
	}
	for _, bad := range []string{"", "\n", "0000000 x\n", `{"v":1,"type":"job","job":"j","sum":"0123456789abcdef"}` + "\n"} {
		if _, err := DecodeFrame([]byte(bad)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeFrame(%q) err = %v, want ErrBadFrame", bad, err)
		}
	}
}
