// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock window, checks the program's outputs,
// and prints every metric by name with its unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"setup_s": {"value": 0.0041, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with
// tracing off); with -trace 1 a separate traced run times the calls into
// each layer and reports the per-layer metrics instead. Build and run it
// from the repository root with
//
//	python3 perfbench/run.py --workload tdown-internet110 --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"bgploop/internal/buildinfo"
)

// MetricDef names a metric and its unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd lists the end-to-end metrics every workload prints with
// tracing off, in print order.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"trial_ms_p50", "ms"},
	{"trial_ms_p90", "ms"},
	{"alloc_mb_per_trial", "MB"},
	{"peak_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
}

// PerLayer lists the per-layer metrics every workload prints with
// tracing on, in print order. A layer that is not on a workload's path
// reads 0 there.
var PerLayer = []MetricDef{
	{"topology.build_ms", "ms"},
	{"des.run_ms", "ms"},
	{"des.share", "ratio"},
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"des.alloc_kb", "KB"},
	{"bgp.updates", "count"},
	{"bgp.best_changes", "count"},
	{"netsim.messages", "count"},
	{"dataplane.fib_changes", "count"},
	{"dataplane.replay_ms", "ms"},
	{"dataplane.share", "ratio"},
	{"dataplane.packets", "count"},
	{"dataplane.hops", "count"},
	{"dataplane.ns_per_hop", "ns"},
	{"dataplane.ttl_exhausted", "count"},
	{"dataplane.alloc_kb", "KB"},
	{"loopanalysis.findloops_ms", "ms"},
	{"loopanalysis.share", "ratio"},
	{"loopanalysis.change_instants", "count"},
	{"loopanalysis.loops", "count"},
	{"experiment.encode_us", "us"},
	{"experiment.decode_us", "us"},
	{"experiment.digest_us", "us"},
	{"experiment.result_bytes", "B"},
	{"sweep.cache_get_us", "us"},
	{"sweep.cache_put_us", "us"},
	{"sweep.journal_append_us", "us"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.executed", "ratio"},
	{"sweep.shared", "ratio"},
	{"sweep.remote", "ratio"},
	{"safety.preflight_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.rejected", "count"},
	{"durable.fsyncs", "count"},
	{"durable.fsync_ms", "ms"},
	{"durable.write_bytes", "B"},
	{"dist.lease_ms", "ms"},
	{"dist.report_ms", "ms"},
	{"dist.leases", "count"},
	{"dist.empty_lease_ratio", "ratio"},
	{"dist.hedged", "count"},
	{"dist.duplicates_dropped", "count"},
	{"trace.overhead", "ratio"},
}

// Report is what one run of a workload measured.
type Report struct {
	// Attempted and Failed count the trials (sweeps) or jobs (served)
	// the run tried and the ones that failed, were refused, or produced
	// a wrong output.
	Attempted, Failed int
	// Values maps metric names to measured values.
	Values map[string]float64
	// Notes are human-readable lines printed before the result.
	Notes []string
	// Trace holds the spans of a traced run.
	Trace *Tracer
}

func (r *Report) set(name string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[name] = v
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a wrong or failed output.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	r.note("FAIL: "+format, args...)
}

// Options configure one run.
type Options struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// WorkDir holds the run's scratch state (stores, caches); it lives
	// inside the checkout and is removed when the run ends.
	WorkDir string
	// StateDir holds what runs of the same build share: the results, the
	// spans, and the served oracle's digests.
	StateDir string
	// Tiny shrinks every workload's inputs for the smoke tests.
	Tiny bool
}

// Workload is one named input set.
type Workload struct {
	Name string
	Why  string
	Run  func(Options) (*Report, error)
}

// Workloads lists the benchmark's workloads.
var Workloads = []Workload{
	{
		Name: "tdown-internet110",
		Why:  "Internet(110) T_down trials through experiment.RunSweep with no cache: the data-plane replay dominates each trial.",
		Run:  runSweepWorkload(tdownInternet110),
	},
	{
		Name: "flap-internet110-ghostflush",
		Why:  "The same trials with Ghost Flushing and 10 flap cycles first: DES and loop extraction dominate, replay is small.",
		Run:  runSweepWorkload(flapInternet110),
	},
	{
		Name: "served-mixed",
		Why:  "bgpd over loopback HTTP with a WAL, a dist coordinator and workers: two closed-loop clients, about half the trials cache hits.",
		Run:  runServed,
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name")
		seed     = fs.Int64("seed", 1, "workload seed: drives the trial seeds and the job draws")
		seconds  = fs.Float64("seconds", 30, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
		workDir  = fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch and output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*workload)
	if !ok {
		names := make([]string, len(Workloads))
		for i, w := range Workloads {
			names[i] = w.Name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	opts := Options{
		Workload: w.Name,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		WorkDir:  *workDir,
	}
	rep, err := runWorkload(w, opts)
	if err != nil {
		return err
	}
	return emit(stdout, opts, rep)
}

// runWorkload runs w in a fresh scratch directory under opts.WorkDir and
// removes it afterwards.
func runWorkload(w Workload, opts Options) (*Report, error) {
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()
	runOpts := opts
	runOpts.WorkDir = scratch
	runOpts.StateDir = abs
	// Flush the writeback earlier runs left behind, or it lands in this
	// run's fsyncs (the served set-up opens two fsynced logs).
	syscall.Sync()
	rep, err := w.Run(runOpts)
	if err != nil {
		return nil, err
	}
	want := EndToEnd
	if opts.Trace {
		want = PerLayer
	}
	for _, m := range want {
		if _, ok := rep.Values[m.Name]; !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", w.Name, m.Name)
		}
	}
	if rep.Trace != nil {
		path := filepath.Join(abs, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, opts.Seed))
		if err := rep.Trace.WriteFile(path); err != nil {
			return nil, err
		}
		rep.note("spans written to %s; self time by span: %s", path, selfSummary(rep.Trace.Spans()))
	}
	return rep, nil
}

// Env is the environment stamp recorded with every result.
type Env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func stamp(opts Options) Env {
	commit := buildinfo.Read().Revision
	if commit == "" {
		commit = "unknown"
	}
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit,
		Workload:   opts.Workload,
		Seed:       opts.Seed,
		Seconds:    opts.Window.Seconds(),
		Trace:      opts.Trace,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// it is not available).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable report, writes the stamped result file,
// and prints the result object as the last line.
func emit(stdout io.Writer, opts Options, rep *Report) error {
	env := stamp(opts)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	for _, n := range rep.Notes {
		fmt.Fprintln(stdout, n)
	}
	defs := EndToEnd
	if opts.Trace {
		defs = PerLayer
	}
	res := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, m := range defs {
		v := rep.Values[m.Name]
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", m.Name, v, m.Unit)
	}
	failRatio := 0.0
	if rep.Attempted > 0 {
		failRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(stdout, "%-30s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", failRatio, rep.Failed, rep.Attempted)

	// The stamped copy of every result goes next to the spans.
	stamped := struct {
		Env       Env     `json:"env"`
		FailRatio float64 `json:"fail_ratio"`
		result
	}{env, failRatio, res}
	data, err := json.MarshalIndent(stamped, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if opts.Trace {
		mode = 1
	}
	path := filepath.Join(opts.WorkDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", opts.Workload, opts.Seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// selfSummary lists the span names by total self time, largest first.
func selfSummary(spans []Span) string {
	self := SelfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1fms", n, ms(self[n]))
	}
	return strings.Join(parts, ", ")
}

// fmtSamples renders samples scaled by scale, in unit, for the notes.
func fmtSamples(xs []float64, scale float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x*scale)
	}
	return fmt.Sprintf("%s %s (median of %d)", strings.Join(parts, " "), unit, len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
