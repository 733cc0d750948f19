package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testKey gives trial i a well-formed content address.
func testKey(i int) string { return fmt.Sprintf("%064x", i+1) }

// intCodec round-trips int results through JSON.
func intCodec() Codec[int] {
	return Codec[int]{
		Key:    testKey,
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (int, error) {
			var v int
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

var errSynthetic = errors.New("synthetic trial failure")

// TestParallelMatchesInline is the core guarantee: for every worker
// width, the merged outcome is identical to the Workers == 1 oracle —
// same results, same statuses, same cut — because everything
// is keyed by trial index, never by completion order.
func TestParallelMatchesInline(t *testing.T) {
	task := func(_ context.Context, i int) (int, error) {
		if i%7 == 3 {
			return 0, fmt.Errorf("trial %d: %w", i, errSynthetic)
		}
		return i * i, nil
	}
	const trials = 50
	oracle, err := Run(context.Background(), trials, task, Options[int]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 0} {
		got, err := Run(context.Background(), trials, task, Options[int]{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < trials; i++ {
			if got.Status[i] != oracle.Status[i] {
				t.Fatalf("workers=%d trial %d: status %v, oracle %v", workers, i, got.Status[i], oracle.Status[i])
			}
			if got.Results[i] != oracle.Results[i] {
				t.Errorf("workers=%d trial %d: result %d, oracle %d", workers, i, got.Results[i], oracle.Results[i])
			}
			if (got.Errs[i] == nil) != (oracle.Errs[i] == nil) {
				t.Errorf("workers=%d trial %d: err %v, oracle %v", workers, i, got.Errs[i], oracle.Errs[i])
			}
		}
		if got.Cut != oracle.Cut {
			t.Errorf("workers=%d: cut %d, oracle %d", workers, got.Cut, oracle.Cut)
		}
		if got.Stats.Failed != oracle.Stats.Failed || got.Stats.Executed != oracle.Stats.Executed {
			t.Errorf("workers=%d: stats %+v, oracle %+v", workers, got.Stats, oracle.Stats)
		}
	}
}

// TestFailFastIndexSemantics pins the fail-fast policy to trial indices:
// whatever the completion order, the lowest failed index is reported and
// everything below it has a usable result.
func TestFailFastIndexSemantics(t *testing.T) {
	const failAt = 11
	task := func(_ context.Context, i int) (int, error) {
		if i >= failAt {
			return 0, fmt.Errorf("trial %d: %w", i, errSynthetic)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(context.Background(), 40, task, Options[int]{Workers: workers, FailFast: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Cut != failAt {
			t.Errorf("workers=%d: cut %d, want %d", workers, out.Cut, failAt)
		}
		for i := 0; i < failAt; i++ {
			if !out.Done(i) || out.Results[i] != i {
				t.Fatalf("workers=%d trial %d below the failure: status %v result %d", workers, i, out.Status[i], out.Results[i])
			}
		}
		for i := failAt + 1; i < 40; i++ {
			switch out.Status[i] {
			case StatusSkipped, StatusCanceled, StatusFailed:
				// Above the first failure anything non-Done is acceptable;
				// the caller discards these slots.
			case StatusDone:
				if workers == 1 {
					t.Errorf("inline trial %d above the failure ran to completion", i)
				}
			}
		}
	}
}

// TestFailFastCancelsInFlight proves the satellite fix: a fail-fast
// failure cancels trials already running above it instead of letting them
// run to completion. Trials 1..3 block on their context; trial 0 fails
// only after all three are in flight.
func TestFailFastCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 3)
	task := func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			for n := 0; n < 3; n++ {
				<-started
			}
			return 0, errSynthetic
		}
		started <- struct{}{}
		<-ctx.Done()
		return 0, fmt.Errorf("trial %d interrupted: %w", i, ctx.Err())
	}
	out, err := Run(context.Background(), 4, task, Options[int]{Workers: 4, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status[0] != StatusFailed {
		t.Errorf("trial 0 status %v, want failed", out.Status[0])
	}
	for i := 1; i < 4; i++ {
		if out.Status[i] != StatusCanceled {
			t.Errorf("trial %d status %v, want canceled", i, out.Status[i])
		}
	}
	if out.Stats.Canceled != 3 || out.Stats.Failed != 1 {
		t.Errorf("stats %+v, want 3 canceled / 1 failed", out.Stats)
	}
}

// TestFailureRatioDoomAbortsSweep proves the early abort: once the
// failure count alone guarantees the ratio will be breached, in-flight
// trials are canceled and unstarted ones are skipped.
func TestFailureRatioDoomAbortsSweep(t *testing.T) {
	// Ratio 0.25 over 4 trials dooms the sweep at the 2nd failure
	// (failures > 1). Trials 2 and 3 block until canceled; trials 0 and 1
	// fail once both blockers are in flight.
	var wait sync.WaitGroup
	wait.Add(2)
	task := func(ctx context.Context, i int) (int, error) {
		if i < 2 {
			wait.Wait()
			return 0, errSynthetic
		}
		wait.Done()
		<-ctx.Done()
		return 0, fmt.Errorf("trial %d interrupted: %w", i, ctx.Err())
	}
	out, err := Run(context.Background(), 4, task, Options[int]{Workers: 4, MaxFailureRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Failed != 2 {
		t.Errorf("failed = %d, want 2", out.Stats.Failed)
	}
	if out.Stats.Canceled != 2 {
		t.Errorf("canceled = %d, want 2 (the blocked in-flight trials)", out.Stats.Canceled)
	}
}

// TestParentCancellationStopsSweep: canceling the caller's context marks
// unfinished trials canceled (never failed) and the sweep still returns a
// complete per-trial accounting.
func TestParentCancellationStopsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	task := func(tctx context.Context, i int) (int, error) {
		if i < 2 {
			return i, nil
		}
		if i == 2 {
			cancel()
			return 0, tctx.Err()
		}
		<-tctx.Done()
		return 0, tctx.Err()
	}
	out, err := Run(ctx, 6, task, Options[int]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Executed != 2 {
		t.Errorf("executed = %d, want 2", out.Stats.Executed)
	}
	if out.Stats.Canceled != 4 {
		t.Errorf("canceled = %d, want 4 (trial 2 plus the never-started tail)", out.Stats.Canceled)
	}
	if out.Stats.Failed != 0 {
		t.Errorf("failed = %d; cancellation must not count as failure", out.Stats.Failed)
	}
}

// TestRunArgumentValidation covers the harness-error paths.
func TestRunArgumentValidation(t *testing.T) {
	ok := func(_ context.Context, i int) (int, error) { return i, nil }
	if _, err := Run(context.Background(), 0, ok, Options[int]{}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Run[int](context.Background(), 3, nil, Options[int]{}); err == nil {
		t.Error("nil task accepted")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), 3, ok, Options[int]{Cache: cache}); err == nil {
		t.Error("cache without codec accepted")
	}
}
