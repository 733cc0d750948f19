package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload on tiny inputs, untraced and
// traced, and checks that every metric is printed with its unit, that
// the result line is well formed, and that no output check failed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Workload: w.Name, Seed: 7, Window: time.Second, Trace: trace, WorkDir: dir, Tiny: true}
				rep, err := runWorkload(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := emit(&out, opts, rep); err != nil {
					t.Fatal(err)
				}
				text := out.String()
				defs := EndToEnd
				if trace {
					defs = PerLayer
				}
				for _, m := range defs {
					if !containsMetricLine(text, m) {
						t.Errorf("metric %s (%s) not printed:\n%s", m.Name, m.Unit, text)
					}
				}
				if !strings.Contains(text, "fail_ratio") {
					t.Errorf("fail_ratio not printed")
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d:\n%s", res.Correct, res.Failed, res.Attempted, text)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					if got := res.Metrics[m.Name]; got.Unit != m.Unit {
						t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, m := range EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

func containsMetricLine(text string, m MetricDef) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the program measures, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd)
	check("per_layer", b.PerLayer, PerLayer)
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 20, End: 25},
	}
	fillSelf(spans)
	for _, want := range []struct {
		id   int
		self int64
	}{{1, 100 - 40 - 10}, {2, 25}, {3, 20}, {4, 30}, {5, 5}} {
		if got := spans[want.id-1].Self; got != want.self {
			t.Errorf("span %d: self %d, want %d", want.id, got, want.self)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample")
	}
}
