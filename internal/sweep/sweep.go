// Package sweep is the deterministic parallel sweep executor: it fans
// independent trials out across a bounded worker pool while guaranteeing
// byte-identical output to a sequential run.
//
// The DES kernel underneath every trial is strictly single-threaded (the
// detlint noconcurrency analyzer enforces it); scale comes from running
// independent trial instances concurrently, exactly the decomposition of
// Coudert et al.'s feasibility study on distributed BGP simulations.
// Each trial is a self-contained deterministic run keyed by its index, so
// the executor only has to make the *orchestration* order-insensitive:
//
//   - trials are dispatched to workers in ascending index order;
//   - every result is merged back into an index-addressed slot, so the
//     merged output is in trial order regardless of completion order;
//   - all failure policy (one cut index, see Options.FailFast and
//     MaxFailureRatio) is defined over trial indices, never over
//     wall-clock completion order.
//
// With Workers == 1 the executor runs the trials inline in the calling
// goroutine — no goroutines, no channels — which is the sequential
// regression oracle: `-j N` must produce byte-identical results to it.
//
// On top of the executor sit two persistence layers:
//
//   - Cache: a content-addressed result store keyed by a canonical digest
//     of everything that determines a trial's outcome (see
//     experiment.Scenario.CacheKey). Unchanged trials in a re-run sweep
//     are served from disk instead of re-simulated.
//   - Journal: an append-only checkpoint of completed trials, so an
//     interrupted sweep restarts from where it stopped (Resume).
//
// This package is the concurrency boundary of the repository: it is the
// only simulation-adjacent package allowed to spawn goroutines (detlint's
// "harness" scope: checked by norealtime, noglobalrand, maprange and
// floateq, exempt from noconcurrency).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Status is the terminal state of one trial slot.
type Status uint8

const (
	// StatusSkipped marks a trial that was never started (aborted sweep).
	StatusSkipped Status = iota
	// StatusDone marks a trial with a usable result (executed, cached, or
	// resumed from the journal).
	StatusDone
	// StatusFailed marks a trial whose task returned a non-cancellation
	// error.
	StatusFailed
	// StatusCanceled marks a trial interrupted by context cancellation.
	StatusCanceled
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusSkipped:
		return "skipped"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Source records where a done trial's result came from.
type Source uint8

const (
	// SourceNone is the zero value for trials without a result.
	SourceNone Source = iota
	// SourceExecuted means the trial was simulated by this run.
	SourceExecuted
	// SourceCache means the result was served from the content-addressed
	// cache.
	SourceCache
	// SourceJournal means the result was replayed from a resume journal.
	SourceJournal
	// SourceFlight means the result was shared from a concurrent
	// execution of the same content address (Options.Flight singleflight).
	SourceFlight
	// SourceRemote means the trial was satisfied by the remote executor
	// seam (Options.Remote) — typically a distributed worker fleet —
	// instead of running in this process.
	SourceRemote
)

// Task runs trial i and returns its result. The context is per-trial:
// it is canceled when the failure policy cuts the sweep below the trial
// or the parent context is canceled, and tasks should poll it
// at convenient boundaries so in-flight work stops instead of running to
// completion. A task signals cancellation by returning an error that
// wraps context.Canceled or context.DeadlineExceeded.
type Task[T any] func(ctx context.Context, trial int) (T, error)

// Codec serializes results for the cache and the journal.
type Codec[T any] struct {
	// Key returns the canonical content-address of trial i, or "" when
	// the trial is not cacheable (the trial then always executes and is
	// never journaled). Key must be a deterministic function of
	// everything that determines the trial's result.
	Key func(trial int) string
	// Encode and Decode round-trip a result. Decode(Encode(v)) must
	// reproduce a value whose re-encoding is byte-identical, so digests
	// computed over decoded results match digests over fresh ones.
	Encode func(v T) ([]byte, error)
	Decode func(data []byte) (T, error)
}

// enabled reports whether the codec can persist results.
func (c Codec[T]) enabled() bool {
	return c.Key != nil && c.Encode != nil && c.Decode != nil
}

// Options tunes one executor run.
type Options[T any] struct {
	// Workers is the worker-pool width: 0 means GOMAXPROCS, 1 runs the
	// trials inline in the calling goroutine (the sequential oracle).
	Workers int
	// FailFast cuts the sweep at the lowest failed trial index: trials
	// above it are skipped or canceled and discarded, reproducing the
	// sequential stop-at-first-failure semantics.
	FailFast bool
	// MaxFailureRatio, when positive and FailFast is off, tolerates
	// ⌊ratio × trials⌋ failures and cuts the sweep at the next failed
	// index in ascending order: from there failed/attempted exceeds the
	// ratio whatever the remaining trials do. The cut depends only on
	// trial indices, so it is the same at every worker count. Zero
	// disables the cut.
	MaxFailureRatio float64
	// Codec enables the cache and journal layers; the zero Codec
	// disables both.
	Codec Codec[T]
	// Cache, when non-nil, serves unchanged trials from disk and stores
	// fresh results. Requires Codec.
	Cache *Cache
	// Journal, when non-nil, appends every completed trial so an
	// interrupted sweep can resume. Requires Codec. The journal's
	// preloaded entries (opened with resume=true) are replayed before
	// anything executes.
	Journal *Journal
	// Flight, when non-nil, collapses concurrent executions of the same
	// content address — across this sweep and every other sweep sharing
	// the Flight — onto one run. Requires Codec (sharing moves encoded
	// bytes between callers). Trials without a key never share.
	Flight *Flight
	// Remote is the pluggable trial-executor seam: when non-nil, trials
	// that have a content address are satisfied by calling Remote —
	// which returns the trial's encoded result bytes, e.g. from a
	// distributed worker fleet (internal/dist) — instead of running the
	// Task in this process. Trials without a key have no content address
	// to prove equality across machines, so they always run locally.
	// Requires a complete Codec; the returned bytes are decoded through
	// it, and the Codec round-trip contract makes the merged output
	// byte-identical to a local run. Remote executions still route
	// through the Flight when one is configured, so concurrent sweeps
	// wanting the same content address share one remote execution.
	Remote func(ctx context.Context, trial int, key string) ([]byte, error)
	// Progress, when non-nil, is called from the merging goroutine after
	// each trial reaches a terminal state, in completion order. It must
	// not block for long; it runs on the sweep's critical path.
	Progress func(trial int, st Status, src Source)
}

// Stats counts what the executor did.
type Stats struct {
	// Trials is the sweep width; Executed counts trials actually
	// simulated by this run.
	Trials   int
	Executed int
	// CacheHits / CacheMisses count cache probes; Resumed counts trials
	// replayed from the journal; Deduped counts trials whose result was
	// shared from a concurrent in-flight execution of the same content
	// address (Options.Flight) instead of being simulated here; Remote
	// counts trials satisfied by the remote executor seam
	// (Options.Remote) rather than this process.
	CacheHits   int
	CacheMisses int
	Resumed     int
	Deduped     int
	Remote      int
	// Quarantined counts cache objects that failed to decode and were
	// moved to the cache's quarantine directory instead of being treated
	// as silent misses.
	Quarantined int
	// Failed, Canceled, and Skipped count the non-Done terminal states.
	Failed   int
	Canceled int
	Skipped  int
}

// Add accumulates other into s (for multi-sweep tooling like bgpfig).
func (s *Stats) Add(other Stats) {
	s.Trials += other.Trials
	s.Executed += other.Executed
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.Resumed += other.Resumed
	s.Deduped += other.Deduped
	s.Remote += other.Remote
	s.Quarantined += other.Quarantined
	s.Failed += other.Failed
	s.Canceled += other.Canceled
	s.Skipped += other.Skipped
}

// CacheHitRatio returns CacheHits/(CacheHits+CacheMisses), or 0 when the
// cache was never probed. It is the ratio the bgpd /metrics endpoint
// exposes.
func (s Stats) CacheHitRatio() float64 {
	probes := s.CacheHits + s.CacheMisses
	if probes == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(probes)
}

// Outcome is the merged, trial-ordered result of a sweep. All slices are
// indexed by trial.
type Outcome[T any] struct {
	Results []T
	Errs    []error
	Status  []Status
	Source  []Source
	Stats   Stats
	// Cut is the trial index the failure policy stopped the sweep at
	// (see Options.FailFast and MaxFailureRatio), or -1 when it ran to
	// the end. Unless the parent context was canceled, every trial at or
	// below Cut ran; the slots above it hold whatever the cut left there,
	// and callers discard them.
	Cut int
}

// Done reports whether trial i produced a usable result.
func (o *Outcome[T]) Done(i int) bool { return o.Status[i] == StatusDone }

// canceledErr reports whether err is a cancellation, possibly wrapped.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes trials 0..trials-1 through task under the given options
// and returns the trial-ordered outcome. Run itself returns an error only
// for harness problems (bad arguments, persistence failures); trial
// failures and cancellations are reported per-slot in the Outcome so the
// caller can apply its own partial-result policy.
func Run[T any](ctx context.Context, trials int, task Task[T], opts Options[T]) (*Outcome[T], error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sweep: non-positive trial count %d", trials)
	}
	if task == nil {
		return nil, errors.New("sweep: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if (opts.Cache != nil || opts.Journal != nil) && !opts.Codec.enabled() {
		return nil, errors.New("sweep: cache/journal require a complete Codec")
	}
	if opts.Flight != nil && !opts.Codec.enabled() {
		return nil, errors.New("sweep: singleflight requires a complete Codec")
	}
	if opts.Remote != nil && !opts.Codec.enabled() {
		return nil, errors.New("sweep: remote execution requires a complete Codec")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	out := &Outcome[T]{
		Results: make([]T, trials),
		Errs:    make([]error, trials),
		Status:  make([]Status, trials),
		Source:  make([]Source, trials),
		Stats:   Stats{Trials: trials},
	}

	// Content addresses, computed once and shared by the journal and the
	// cache.
	keys := make([]string, trials)
	if opts.Codec.enabled() {
		for i := range keys {
			keys[i] = opts.Codec.Key(i)
		}
	}

	// Replay the resume journal: a journaled result is reused only when
	// its content address still matches, so a changed scenario spec
	// invalidates stale checkpoints per trial.
	if opts.Journal != nil {
		for i := 0; i < trials; i++ {
			if keys[i] == "" {
				continue
			}
			data, ok := opts.Journal.Lookup(i, keys[i])
			if !ok {
				continue
			}
			v, err := opts.Codec.Decode(data)
			if err != nil {
				// A corrupt entry (e.g. a torn write from a kill) is
				// ignored; the trial simply re-executes.
				continue
			}
			out.Results[i], out.Status[i], out.Source[i] = v, StatusDone, SourceJournal
			out.Stats.Resumed++
		}
	}

	// Probe the content-addressed cache for the rest.
	if opts.Cache != nil {
		for i := 0; i < trials; i++ {
			if out.Status[i] == StatusDone || keys[i] == "" {
				continue
			}
			data, ok, err := opts.Cache.Get(keys[i])
			if err != nil && !errors.Is(err, errCorrupt) {
				return nil, fmt.Errorf("sweep: cache read trial %d: %w", i, err)
			}
			if !ok && err == nil {
				out.Stats.CacheMisses++
				continue
			}
			var v T
			if err == nil {
				v, err = opts.Codec.Decode(data)
			}
			if err != nil {
				// Corrupt object (bad checksum or undecodable): quarantine
				// the evidence (visible in stats and /metrics), then treat
				// the probe as a miss so the trial re-executes and writes a
				// fresh object.
				if qerr := opts.Cache.Quarantine(keys[i]); qerr != nil {
					return nil, fmt.Errorf("sweep: quarantine trial %d: %w", i, qerr)
				}
				out.Stats.Quarantined++
				out.Stats.CacheMisses++
				continue
			}
			out.Results[i], out.Status[i], out.Source[i] = v, StatusDone, SourceCache
			out.Stats.CacheHits++
			if err := persist(opts, i, keys[i], data, false); err != nil {
				return nil, err
			}
			if opts.Progress != nil {
				opts.Progress(i, StatusDone, SourceCache)
			}
		}
	}

	// Everything still pending executes, in ascending index order.
	var pending []int
	for i := 0; i < trials; i++ {
		if out.Status[i] != StatusDone {
			pending = append(pending, i)
		}
	}

	ctl := newController(opts, trials)

	var runErr error
	if workers == 1 {
		runErr = runInline(ctx, task, opts, out, ctl, pending, keys)
	} else {
		runErr = runPool(ctx, task, opts, out, ctl, pending, keys, workers)
	}
	if runErr != nil {
		return nil, runErr
	}
	out.Cut = ctl.finalCut()

	for i := 0; i < trials; i++ {
		switch out.Status[i] {
		case StatusFailed:
			out.Stats.Failed++
		case StatusCanceled:
			out.Stats.Canceled++
		case StatusSkipped:
			out.Stats.Skipped++
		case StatusDone:
			switch out.Source[i] {
			case SourceExecuted:
				out.Stats.Executed++
			case SourceFlight:
				out.Stats.Deduped++
			case SourceRemote:
				out.Stats.Remote++
			}
		}
	}
	return out, nil
}

// persist stores one completed trial in the journal and, when fresh, the
// cache. It is always called from the single merging goroutine, so the
// underlying appends need no locking beyond the file itself.
func persist[T any](opts Options[T], trial int, key string, data []byte, fresh bool) error {
	if key == "" || data == nil {
		return nil
	}
	if opts.Journal != nil {
		if err := opts.Journal.Append(trial, key, data); err != nil {
			return fmt.Errorf("sweep: journal trial %d: %w", trial, err)
		}
	}
	if fresh && opts.Cache != nil {
		if err := opts.Cache.Put(key, data); err != nil {
			return fmt.Errorf("sweep: cache write trial %d: %w", trial, err)
		}
	}
	return nil
}

// merge records one completed trial into the outcome and applies the
// failure policy. execSrc is SourceExecuted for trials this sweep ran
// itself and SourceFlight for results shared from a concurrent execution.
// Called only from the merging goroutine.
func merge[T any](opts Options[T], out *Outcome[T], ctl *controller, trial int, key string, v T, execSrc Source, err error) error {
	src := SourceNone
	switch {
	case err == nil:
		out.Results[trial], out.Status[trial], out.Source[trial] = v, StatusDone, execSrc
		src = execSrc
		data, encErr := encodeFor(opts, v)
		if encErr != nil {
			return fmt.Errorf("sweep: encode trial %d: %w", trial, encErr)
		}
		if err := persist(opts, trial, key, data, true); err != nil {
			return err
		}
	case canceledErr(err):
		out.Errs[trial], out.Status[trial] = err, StatusCanceled
	default:
		out.Errs[trial], out.Status[trial] = err, StatusFailed
		ctl.noteFailure(trial)
	}
	if opts.Progress != nil {
		opts.Progress(trial, out.Status[trial], src)
	}
	return nil
}

// encodeFor serializes v when persistence is configured.
func encodeFor[T any](opts Options[T], v T) ([]byte, error) {
	if !opts.Codec.enabled() || (opts.Cache == nil && opts.Journal == nil) {
		return nil, nil
	}
	return opts.Codec.Encode(v)
}

// runInline is the Workers == 1 path: no goroutines, trials execute in
// index order in the calling goroutine. This is the sequential regression
// oracle the parallel pool must match byte for byte.
func runInline[T any](ctx context.Context, task Task[T], opts Options[T], out *Outcome[T], ctl *controller, pending []int, keys []string) error {
	for _, i := range pending {
		if err := ctx.Err(); err != nil {
			out.Errs[i], out.Status[i] = err, StatusCanceled
			if opts.Progress != nil {
				opts.Progress(i, StatusCanceled, SourceNone)
			}
			continue
		}
		if ctl.shouldSkip(i) {
			out.Status[i] = StatusSkipped
			if opts.Progress != nil {
				opts.Progress(i, StatusSkipped, SourceNone)
			}
			continue
		}
		v, src, err := executeTrial(ctx, task, opts, i, keys[i])
		if merr := merge(opts, out, ctl, i, keys[i], v, src, err); merr != nil {
			return merr
		}
	}
	return nil
}

// executeTrial runs one trial, routing it through the singleflight when a
// Flight and a content address are available. The leader's own value is
// returned directly; a follower decodes the shared bytes (byte-identical
// on re-encode per the Codec contract, so sharing never changes digests)
// and is marked SourceFlight. Errors are never shared — a failed or
// canceled leader makes the follower execute the trial itself.
//
// When Options.Remote is set and the trial has a content address, the
// execution (leader or direct) is satisfied by the remote seam instead of
// the local task; a remote payload that fails to decode falls back to
// local execution (byte-identical by determinism), mirroring the cache's
// corrupt-object-is-a-miss policy.
func executeTrial[T any](ctx context.Context, task Task[T], opts Options[T], i int, key string) (T, Source, error) {
	if opts.Flight == nil || key == "" {
		if opts.Remote != nil && key != "" {
			return executeRemote(ctx, task, opts, i, key)
		}
		v, err := task(ctx, i)
		return v, SourceExecuted, err
	}
	var (
		leaderV   T
		isLeader  bool
		leaderSrc = SourceExecuted
	)
	data, shared, err := opts.Flight.Do(ctx, key, func() ([]byte, error) {
		if opts.Remote != nil {
			v, src, data, err := remoteBytes(ctx, task, opts, i, key)
			if err != nil {
				return nil, err
			}
			leaderV, isLeader, leaderSrc = v, true, src
			return data, nil
		}
		v, err := task(ctx, i)
		if err != nil {
			return nil, err
		}
		data, err := opts.Codec.Encode(v)
		if err != nil {
			return nil, err
		}
		leaderV, isLeader = v, true
		return data, nil
	})
	switch {
	case err != nil:
		var zero T
		return zero, SourceExecuted, err
	case isLeader:
		return leaderV, leaderSrc, nil
	case shared:
		v, err := opts.Codec.Decode(data)
		if err != nil {
			// A shared payload that does not decode falls back to direct
			// execution, mirroring the cache's corrupt-object-is-a-miss
			// policy.
			v, err := task(ctx, i)
			return v, SourceExecuted, err
		}
		return v, SourceFlight, nil
	default:
		// Unreachable: a nil error from Do means either this caller led
		// the execution or the payload was shared.
		v, err := task(ctx, i)
		return v, SourceExecuted, err
	}
}

// executeRemote satisfies one trial through the remote seam without a
// Flight.
func executeRemote[T any](ctx context.Context, task Task[T], opts Options[T], i int, key string) (T, Source, error) {
	v, src, _, err := remoteBytes(ctx, task, opts, i, key)
	if err != nil {
		var zero T
		return zero, SourceExecuted, err
	}
	return v, src, nil
}

// remoteBytes calls Options.Remote for trial i and decodes the payload.
// Undecodable bytes (a worker bug, not a determinism question) degrade to
// local execution; remote errors — including cancellation — propagate,
// because the remote layer owns its own retry and reassignment policy and
// its errors are final.
func remoteBytes[T any](ctx context.Context, task Task[T], opts Options[T], i int, key string) (T, Source, []byte, error) {
	data, err := opts.Remote(ctx, i, key)
	if err != nil {
		var zero T
		return zero, SourceExecuted, nil, err
	}
	v, err := opts.Codec.Decode(data)
	if err == nil {
		return v, SourceRemote, data, nil
	}
	v, err = task(ctx, i)
	if err != nil {
		var zero T
		return zero, SourceExecuted, nil, err
	}
	data, err = opts.Codec.Encode(v)
	if err != nil {
		var zero T
		return zero, SourceExecuted, nil, err
	}
	return v, SourceExecuted, data, nil
}

// runPool is the parallel path: a feeder hands ascending indices to
// `workers` goroutines; the calling goroutine merges completions. The
// only shared mutable state is the controller (mutex-guarded) and the
// channels; results land in index-addressed slots, so merged output is
// independent of completion order.
func runPool[T any](ctx context.Context, task Task[T], opts Options[T], out *Outcome[T], ctl *controller, pending []int, keys []string, workers int) error {
	if workers > len(pending) {
		workers = len(pending)
	}
	if len(pending) == 0 {
		return nil
	}

	type completion struct {
		trial int
		v     T
		src   Source
		err   error
		skip  bool
	}
	idxCh := make(chan int)
	resCh := make(chan completion, workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctl.shouldSkip(i) {
					resCh <- completion{trial: i, skip: true}
					continue
				}
				tctx, cancel := context.WithCancel(ctx)
				ctl.register(i, cancel)
				v, src, err := executeTrial(tctx, task, opts, i, keys[i])
				ctl.unregister(i)
				cancel()
				resCh <- completion{trial: i, v: v, src: src, err: err}
			}
		}()
	}
	// The feeder owns idxCh; it always sends every pending index (workers
	// turn aborted indices into cheap skips), so the merger below receives
	// exactly len(pending) completions.
	go func() {
		defer close(idxCh)
		for _, i := range pending {
			idxCh <- i
		}
	}()

	var mergeErr error
	for range pending {
		c := <-resCh
		if mergeErr != nil {
			continue // drain; first error wins
		}
		if c.skip {
			out.Status[c.trial] = StatusSkipped
			if opts.Progress != nil {
				opts.Progress(c.trial, StatusSkipped, SourceNone)
			}
			continue
		}
		mergeErr = merge(opts, out, ctl, c.trial, keys[c.trial], c.v, c.src, c.err)
	}
	wg.Wait()
	return mergeErr
}

// controller coordinates the failure policy between the merging
// goroutine (which observes failures) and the workers (which decide
// whether to start a trial and hold per-trial cancel functions).
//
// The policy is one cut index: the sweep tolerates `allowed` failures and
// stops at the next failed index in ascending order, as a sequential run
// would. Failures arrive out of order, so the cut is the (allowed+1)-th
// smallest failed index seen so far. It only ever moves down, and it
// never passes a trial that has not finished, so every trial at or below
// the final cut runs and the final cut is the sequential one. Trials
// above it are skipped or canceled.
type controller struct {
	mu      sync.Mutex
	allowed int   // failures tolerated before the cut; -1 means no cut
	failed  []int // failed indices seen so far, ascending
	cut     int   // current cut index, -1 while none
	cancels []context.CancelFunc
}

// newController derives the tolerated failure count from the options:
// none for fail-fast, ⌊MaxFailureRatio·trials⌋ for a positive ratio, and
// no cut at all otherwise.
func newController[T any](opts Options[T], trials int) *controller {
	allowed := -1
	switch {
	case opts.FailFast:
		allowed = 0
	case opts.MaxFailureRatio > 0:
		allowed = int(math.Floor(opts.MaxFailureRatio * float64(trials)))
	}
	return &controller{allowed: allowed, cut: -1, cancels: make([]context.CancelFunc, trials)}
}

// aboveCutLocked reports whether trial i lies above the current cut.
func (c *controller) aboveCutLocked(i int) bool {
	return c.cut >= 0 && i > c.cut
}

// shouldSkip reports whether trial i must not start.
func (c *controller) shouldSkip(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aboveCutLocked(i)
}

// register installs the cancel function of an in-flight trial.
func (c *controller) register(i int, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aboveCutLocked(i) {
		// The cut raced the registration; cancel immediately so the
		// trial stops at its first context poll.
		cancel()
		return
	}
	c.cancels[i] = cancel
}

// unregister clears a completed trial's cancel function.
func (c *controller) unregister(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancels[i] = nil
}

// noteFailure records failed trial i, lowers the cut when i lands among
// the first allowed+1 failures, and cancels the in-flight trials above
// the new cut.
func (c *controller) noteFailure(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allowed < 0 {
		return
	}
	at, _ := slices.BinarySearch(c.failed, i)
	c.failed = slices.Insert(c.failed, at, i)
	if len(c.failed) <= c.allowed {
		return
	}
	c.cut = c.failed[c.allowed]
	for j := c.cut + 1; j < len(c.cancels); j++ {
		if c.cancels[j] != nil {
			c.cancels[j]()
			c.cancels[j] = nil
		}
	}
}

// finalCut returns the cut the sweep ended with, -1 when none.
func (c *controller) finalCut() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut
}
