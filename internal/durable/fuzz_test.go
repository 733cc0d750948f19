package durable

import (
	"bytes"
	"testing"
)

// FuzzWALRecord hammers the frame decoder — the line decoder under the
// job WAL, the sweep journal, and every cache object — with hostile
// input. The properties pinned:
//
//   - DecodeFrame never panics, whatever the bytes;
//   - anything it accepts re-frames to the identical bytes (the encoding
//     is canonical, so replay and compaction agree on the format);
//   - any input, framed as a payload, decodes back to itself.
//
// Seeds live in testdata/fuzz/FuzzWALRecord; CI runs a short
// coverage-guided session on top (fuzz-smoke).
func FuzzWALRecord(f *testing.F) {
	f.Add(AppendFrame(nil, []byte(`{"v":2,"type":"job","job":"job-000001","key":"ab12/trials=2","trials":2,"spec":{"topology":{"family":"clique","size":4},"event":"tdown"}}`)))
	f.Add(AppendFrame(nil, []byte(`{"v":2,"type":"state","job":"job-000001","state":"running"}`)))
	f.Add(AppendFrame(nil, []byte(`{"v":2,"trial":3,"key":"00ff","data":{"PacketsSent":42}}`)))
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte(`not a frame at all`))
	f.Add([]byte(`{"v":1,"seq":0,"type":"job","job":"j","sum":"0000000000000000"}` + "\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		if p, err := DecodeFrame(in); err == nil {
			if re := AppendFrame(nil, p); !bytes.Equal(re, in) {
				t.Fatalf("accepted frame does not re-frame identically:\n%q\n%q", in, re)
			}
		}
		p, err := DecodeFrame(AppendFrame(nil, in))
		if err != nil || !bytes.Equal(p, in) {
			t.Fatalf("payload %q did not round-trip: %q, %v", in, p, err)
		}
	})
}
