package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, start and end (ns since
// the tracer's epoch), and the span that caused it. Spans of one trial or
// job share a Trace id. AllocBytes is the heap allocated during the span;
// it is only recorded where a single goroutine does all the work, because
// the counter is process-wide.
type Span struct {
	Trace      string `json:"trace"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0: no parent
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Self       int64  `json:"self_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`

	allocs bool
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory; WriteFile writes them out when the traced
// run ends. It is safe for concurrent use.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id. With allocs set the span also
// records the heap allocated until End.
func (t *Tracer) Begin(trace string, parent int, name string, allocs bool) int {
	if t == nil {
		return 0
	}
	var a uint64
	if allocs {
		a = heapAllocs()
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, AllocBytes: a, allocs: allocs})
	return len(t.spans)
}

// End closes span id and returns it.
func (t *Tracer) End(id int) Span {
	if t == nil || id == 0 {
		return Span{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	var a uint64
	t.mu.Lock()
	allocs := t.spans[id-1].allocs
	t.mu.Unlock()
	if allocs {
		a = heapAllocs()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if allocs {
		s.AllocBytes = a - s.AllocBytes
	}
	return *s
}

// Record adds a span whose interval was measured elsewhere (a client's
// send and receive timestamps).
func (t *Tracer) Record(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans with self times filled in.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	fillSelf(out)
	return out
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func fillSelf(spans []Span) {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
}

// covered is the length of the union of the kids' intervals clipped to
// [start, end].
func covered(start, end int64, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SelfByName sums self time per span name, for the human-readable
// summary of a traced run.
func SelfByName(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.Self)
	}
	return out
}

var (
	allocMu    sync.Mutex
	allocStats runtime.MemStats
)

// heapAllocs is the process's cumulative heap allocation in bytes
// (runtime.MemStats.TotalAlloc, which counts every allocation exactly;
// runtime/metrics lags by up to a span per size class).
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	runtime.ReadMemStats(&allocStats)
	return allocStats.TotalAlloc
}

// heapPeak samples the live heap marked by each GC cycle until stop is
// closed, then delivers the 95th percentile over the cycles seen. The
// plain maximum would let the one cycle that happened to mark both
// in-flight trials at their largest decide the figure.
func heapPeak(interval time.Duration, stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		cycle := s[1].Value.Uint64()
		var live []float64
		sample := func() {
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != cycle {
				cycle = c
				live = append(live, float64(s[0].Value.Uint64()))
			}
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sample()
				if len(live) == 0 {
					live = append(live, float64(s[0].Value.Uint64()))
				}
				out <- uint64(percentile(live, 95))
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return out
}
