package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
)

// sweepConfig is a sweep workload: Internet-like T_down trials from
// experiment.InternetTDown, optionally with Ghost Flushing and flap
// cycles before the measured failure.
type sweepConfig struct {
	nodes      int
	flapCycles int
	ghostFlush bool
}

var (
	tdownInternet110 = sweepConfig{nodes: 110}
	flapInternet110  = sweepConfig{nodes: 110, flapCycles: 10, ghostFlush: true}
)

// setupReps is how many times a run repeats its set-up, half before the
// timed window and half after it; setup_s is the median. Sampling both
// ends of the window spreads the samples over the run, so a slow spell
// of a few seconds moves the median less.
const setupReps = 40

// topologySeed fixes the Internet-like graph, as the paper reused one
// derived graph per size; the workload seed picks the trials.
const topologySeed = 1

// trialStride separates the trial-index ranges of different workload
// seeds.
const trialStride = 100_000

// generator returns the workload's trial generator for one workload
// seed: trial i is InternetTDown(nodes, cfg, topologySeed) at index
// seed*trialStride + i (which fixes the destination and the protocol
// seed), with the flap cycles added.
func (c sweepConfig) generator(seed int64) experiment.Generator {
	cfg := bgp.DefaultConfig()
	cfg.Enhancements.GhostFlushing = c.ghostFlush
	base := experiment.InternetTDown(c.nodes, cfg, topologySeed)
	offset := int(seed) * trialStride
	return func(trial int) (experiment.Scenario, error) {
		s, err := base(offset + trial)
		s.FlapCycles = c.flapCycles
		return s, err
	}
}

// setup builds and validates the workload's inputs: the Internet-like
// topology the trials run on and the first trial's scenario and fault
// plan. It returns the generator, the set-up time and the topology build
// time.
func (c sweepConfig) setup(seed int64) (experiment.Generator, time.Duration, time.Duration, error) {
	start := time.Now()
	g, err := topology.InternetLike(c.nodes, topologySeed)
	if err != nil {
		return nil, 0, 0, err
	}
	build := time.Since(start)
	if !g.Connected() {
		return nil, 0, 0, errors.New("generated topology is not connected")
	}
	gen := c.generator(seed)
	s, err := gen(0)
	if err == nil {
		err = s.Validate()
	}
	if err == nil {
		_, err = experiment.CanonicalPlan(s)
	}
	return gen, time.Since(start), build, err
}

// sweepRun is what one timed window of experiment.RunSweep calls
// measured.
type sweepRun struct {
	start, lastDone time.Time
	// done lists the completed trials in index order; wall is keyed by
	// trial index, results holds the retained results by trial index.
	done    []int
	wall    map[int]time.Duration
	results map[int]*experiment.Result
	failed  map[int]error
	bad     []string // results that break an accounting invariant
	allocs  uint64   // heap allocated from start to the last completion
	peak    uint64   // peak heap during the window
	stats   sweep.Stats
}

// chunkPerWorker sets how many trials each experiment.RunSweep call of a
// timed window holds per executor worker. RunSweep keeps every result
// until it returns, so one call spanning the whole window would make the
// live heap grow with the number of trials the machine managed to run.
const chunkPerWorker = 16

// timedSweep runs gen through consecutive experiment.RunSweep calls of
// chunkPerWorker*workers trials with the given executor width until the
// window ends, then cancels the trials still running. A trial's time
// runs from the generator call that starts it to its Progress completion
// callback. Each result is checked as its call returns; the first one is
// kept for the re-run check, and all of them when retain is set.
func timedSweep(gen experiment.Generator, window time.Duration, workers int, retain bool) (*sweepRun, error) {
	chunk := chunkPerWorker * workers
	var mu sync.Mutex
	run := &sweepRun{wall: map[int]time.Duration{}, results: map[int]*experiment.Result{}, failed: map[int]error{}}
	var allocEnd uint64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	stop := make(chan struct{})
	peak := heapPeak(5*time.Millisecond, stop)
	defer func() {
		if stop != nil {
			close(stop)
			<-peak
		}
	}()
	alloc0 := heapAllocs()
	run.start = time.Now()
	for base := 0; ctx.Err() == nil; base += chunk {
		starts := make([]time.Time, chunk)
		var done []int
		timed := func(k int) (experiment.Scenario, error) {
			now := time.Now()
			mu.Lock()
			starts[k] = now
			mu.Unlock()
			return gen(base + k)
		}
		progress := func(k int, st sweep.Status, src sweep.Source) {
			if st != sweep.StatusDone {
				return
			}
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			run.wall[base+k] = now.Sub(starts[k])
			run.lastDone = now
			allocEnd = heapAllocs()
			done = append(done, base+k)
		}
		agg, results, stats, err := experiment.RunSweep(timed, chunk, experiment.SweepOptions{
			Workers:           workers,
			Context:           ctx,
			Progress:          progress,
			ContinueOnFailure: true,
			MaxFailureRatio:   1,
		})
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		run.stats.Add(stats)
		for _, f := range agg.Failures {
			run.failed[base+f.Trial] = f.Err
		}
		sort.Ints(done)
		if len(done) != len(results) {
			return nil, fmt.Errorf("%d trials completed but %d results returned", len(done), len(results))
		}
		for k, trial := range done {
			if msg := checkResult(results[k]); msg != "" {
				run.bad = append(run.bad, fmt.Sprintf("trial %d: %s", trial, msg))
			}
			if retain || len(run.done) == 0 {
				run.results[trial] = results[k]
			}
			run.done = append(run.done, trial)
		}
	}
	close(stop)
	run.peak = <-peak
	stop = nil
	if len(run.done) == 0 {
		return nil, fmt.Errorf("no trial completed within %v", window)
	}
	run.allocs = allocEnd - alloc0
	return run, nil
}

func (r *sweepRun) walls() []float64 {
	out := make([]float64, 0, len(r.done))
	for _, t := range r.done {
		out = append(out, ms(r.wall[t]))
	}
	return out
}

// checkResult returns why res breaks an accounting invariant, or "".
func checkResult(res *experiment.Result) string {
	rp := res.Replay
	switch {
	case rp.Sent != rp.Delivered+rp.NoRoute+rp.TTLExhausted:
		return fmt.Sprintf("%d packets sent but %d delivered + %d no route + %d TTL-exhausted", rp.Sent, rp.Delivered, rp.NoRoute, rp.TTLExhausted)
	case res.PacketsSent != rp.Sent || res.TTLExhaustions != rp.TTLExhausted:
		return "result totals disagree with its replay"
	case res.LoopStats.Count != len(res.Loops):
		return fmt.Sprintf("loop stats count %d loops, result has %d", res.LoopStats.Count, len(res.Loops))
	case res.EventsExecuted == 0 || res.FIBChanges == 0:
		return "no events or FIB changes recorded"
	}
	return ""
}

// check records the sweep's failed trials and the results that break an
// accounting invariant.
func (r *sweepRun) check(rep *Report) {
	for trial, err := range r.failed {
		rep.fail("trial %d failed: %v", trial, err)
	}
	for _, msg := range r.bad {
		rep.fail("%s", msg)
	}
}

// rerun re-executes the given trials one at a time, outside the timed
// window, and checks that each result digests the same as in the
// parallel run.
func (r *sweepRun) rerun(gen experiment.Generator, trials []int, rep *Report) error {
	sub := func(k int) (experiment.Scenario, error) { return gen(trials[k]) }
	_, results, _, err := experiment.RunSweep(sub, len(trials), experiment.SweepOptions{Workers: 1})
	if err != nil {
		rep.fail("re-run of trials %v: %v", trials, err)
		return nil
	}
	for k, trial := range trials {
		want, err := experiment.DigestResult(r.results[trial])
		if err != nil {
			return err
		}
		got, err := experiment.DigestResult(results[k])
		if err != nil {
			return err
		}
		if got != want {
			rep.fail("trial %d: parallel run digests %s, sequential re-run %s", trial, want, got)
		}
	}
	return nil
}

// runSweepWorkload returns the Run function of a sweep workload.
func runSweepWorkload(c sweepConfig) func(Options) (*Report, error) {
	return func(o Options) (*Report, error) {
		if o.Tiny {
			c.nodes = 24
		}
		rep := &Report{}
		var (
			gen           experiment.Generator
			setups, build []float64
		)
		setUp := func(reps int) error {
			for i := 0; i < reps; i++ {
				runtime.GC() // a collection left over from earlier work would land in the timing
				g, d, b, err := c.setup(o.Seed)
				if err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				gen = g
				setups = append(setups, d.Seconds())
				build = append(build, ms(b))
			}
			return nil
		}
		if err := setUp(setupReps / 2); err != nil {
			return nil, err
		}
		if o.Trace {
			rep.set("topology.build_ms", median(build))
			return rep, c.traced(o, gen, rep)
		}

		run, err := timedSweep(gen, o.Window, runtime.GOMAXPROCS(0), false)
		if err != nil {
			return nil, err
		}
		if err := setUp(setupReps - setupReps/2); err != nil {
			return nil, err
		}
		rep.set("setup_s", median(setups))
		rep.note("set-up: %s", fmtSamples(setups, 1e3, "ms"))
		rep.Attempted = len(run.done) + len(run.failed)
		walls := run.walls()
		elapsed := run.lastDone.Sub(run.start).Seconds()
		rate := float64(len(run.done)) / elapsed
		p50, p90 := percentile(walls, 50), percentile(walls, 90)
		rep.set("trials_per_s", rate)
		rep.set("trial_ms_p50", p50)
		rep.set("trial_ms_p90", p90)
		rep.set("alloc_mb_per_trial", float64(run.allocs)/1e6/float64(len(run.done)))
		rep.set("peak_heap_mb", float64(run.peak)/1e6)
		// In a sweep each trial is the unit of work a caller waits for,
		// so the job metrics are the trial metrics.
		rep.set("jobs_per_s", rate)
		rep.set("job_ms_p50", p50)
		rep.set("job_ms_p90", p90)
		rep.note("trials: %d completed in %.2fs with %d workers; %d beyond p90", len(run.done), elapsed, runtime.GOMAXPROCS(0), countAbove(walls, p90))

		run.check(rep)
		return rep, run.rerun(gen, run.done[:1], rep)
	}
}

// traced is the traced run of a sweep workload: an untraced sequential
// sweep over the first half of the window, then the same trials rebuilt
// layer by layer from public calls and checked against the untraced
// results.
func (c sweepConfig) traced(o Options, gen experiment.Generator, rep *Report) error {
	untraced := o.Window / 2
	run, err := timedSweep(gen, untraced, 1, true)
	if err != nil {
		return err
	}
	rep.Attempted = len(run.done) + len(run.failed)
	run.check(rep)
	rep.Trace = NewTracer()
	p, err := newPipeline(rep.Trace, o.WorkDir)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(o.Window - untraced)
	for k, trial := range run.done {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		mismatch, err := p.trial(fmt.Sprintf("trial-%d", trial), trial,
			func() (experiment.Scenario, error) { return gen(trial) }, run.results[trial], run.wall[trial])
		if err != nil {
			return err
		}
		if mismatch != "" {
			rep.fail("%s", mismatch)
		}
	}
	if err := p.close(); err != nil {
		return err
	}
	p.report(rep)

	fsyncs, written := p.fs.snapshot()
	traced := float64(len(p.samples))
	rep.set("durable.fsyncs", float64(len(fsyncs))/traced)
	rep.set("durable.fsync_ms", median(durationsMS(fsyncs)))
	rep.set("durable.write_bytes", float64(written)/traced)

	st := run.stats
	total := float64(st.Executed + st.CacheHits + st.Resumed + st.Deduped + st.Remote)
	rep.set("sweep.cache_hit_ratio", st.CacheHitRatio())
	rep.set("sweep.executed", float64(st.Executed)/total)
	rep.set("sweep.shared", float64(st.Deduped)/total)
	rep.set("sweep.remote", float64(st.Remote)/total)
	// A sweep has no served path.
	for _, name := range []string{"serve.submit_ms", "serve.queue_ms", "serve.run_ms", "serve.rejected",
		"dist.lease_ms", "dist.report_ms", "dist.leases", "dist.empty_lease_ratio", "dist.hedged", "dist.duplicates_dropped"} {
		rep.set(name, 0)
	}
	return nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// countAbove counts the samples strictly above x.
func countAbove(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}
