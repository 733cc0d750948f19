package main

import (
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"time"

	"bgploop/internal/durable"
)

// timingFS is a durable.FS that passes every call to the real
// filesystem and counts fsyncs, their latency, and bytes written. Each
// fsync is also recorded as a span under the caller's current span.
type timingFS struct {
	inner  durable.FS
	tracer *Tracer
	// parent returns the span an fsync belongs under (0: none).
	parent func() (trace string, id int)

	mu      sync.Mutex
	fsyncs  []time.Duration
	written int64
}

func newTimingFS(tr *Tracer, parent func() (string, int)) *timingFS {
	if parent == nil {
		parent = func() (string, int) { return "", 0 }
	}
	return &timingFS{inner: durable.OS(), tracer: tr, parent: parent}
}

// snapshot returns the fsync latencies and bytes written so far.
func (f *timingFS) snapshot() ([]time.Duration, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.fsyncs...), f.written
}

func (f *timingFS) wrap(file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	return f.wrap(f.inner.OpenFile(name, flag, perm))
}

func (f *timingFS) CreateTemp(dir, pattern string) (durable.File, error) {
	return f.wrap(f.inner.CreateTemp(dir, pattern))
}

func (f *timingFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *timingFS) ReadFile(name string) ([]byte, error)       { return f.inner.ReadFile(name) }
func (f *timingFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

var _ durable.FS = (*timingFS)(nil)

type timingFile struct {
	durable.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.mu.Lock()
	t.fs.written += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timingFile) Sync() error {
	trace, parent := t.fs.parent()
	id := t.fs.tracer.Begin(trace, parent, "durable.fsync", false)
	start := time.Now()
	err := t.File.Sync()
	d := time.Since(start)
	t.fs.tracer.End(id)
	t.fs.mu.Lock()
	t.fs.fsyncs = append(t.fs.fsyncs, d)
	t.fs.mu.Unlock()
	return err
}

// timingTransport is the http.RoundTripper of the dist workers: it times
// each call to the coordinator's lease and result endpoints, up to the
// response headers, and records it as a span.
type timingTransport struct {
	inner  http.RoundTripper
	tracer *Tracer

	mu     sync.Mutex
	lease  []time.Duration // every lease poll, granted or empty
	report []time.Duration // every result report
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	name := "dist" + strings.ReplaceAll(strings.TrimPrefix(path, "/v1/work"), "/", ".")
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	t.tracer.Record("", 0, name, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch path {
	case "/v1/work/lease":
		t.lease = append(t.lease, end.Sub(start))
	case "/v1/work/result":
		t.report = append(t.report, end.Sub(start))
	}
	return resp, nil
}
