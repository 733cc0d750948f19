package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/faultplan"
	"bgploop/internal/routing"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
)

// sweepDigests runs gen through RunSweep and returns the aggregate digest
// plus the per-trial result digests.
func sweepDigests(t *testing.T, gen Generator, trials int, opts SweepOptions) (string, []string, sweep.Stats) {
	t.Helper()
	agg, results, stats, err := RunSweep(gen, trials, opts)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	aggDig, perTrial := digestOutcome(t, agg, results)
	return aggDig, perTrial, stats
}

// digestOutcome digests an aggregate and its per-trial results.
func digestOutcome(t *testing.T, agg Aggregate, results []*Result) (string, []string) {
	t.Helper()
	aggDig, err := DigestAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	perTrial := make([]string, len(results))
	for i, res := range results {
		if perTrial[i], err = DigestResult(res); err != nil {
			t.Fatal(err)
		}
	}
	return aggDig, perTrial
}

// TestSweepParallelDeterminism is the acceptance criterion: the same
// sweep at -j 1, -j 4, and -j GOMAXPROCS produces byte-identical
// aggregate and per-trial digests — including a sweep whose failures
// exceed its failure ratio, whose partial results must not depend on
// which trials the abort caught in flight. CI runs this test under -race.
func TestSweepParallelDeterminism(t *testing.T) {
	healthy := Repeat(CliqueTDown(5, bgp.DefaultConfig(), 7))
	cases := []struct {
		name    string
		gen     Generator
		trials  int
		opts    SweepOptions
		wantErr bool
	}{
		{name: "healthy", gen: healthy, trials: 6},
		{
			// ⌊0.25·8⌋ = 2 failures are tolerated, so the sweep is cut at
			// trial 5: trials 0..5 count and 6 and 7 are discarded.
			name: "failure-ratio-exceeded",
			gen: func(trial int) (Scenario, error) {
				if trial%2 == 1 && trial <= 5 {
					return Scenario{}, errors.New("synthetic generator failure")
				}
				return healthy(trial)
			},
			trials:  8,
			opts:    SweepOptions{ContinueOnFailure: true, MaxFailureRatio: 0.25},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (string, []string) {
				opts := tc.opts
				opts.Workers = workers
				agg, results, _, err := RunSweep(tc.gen, tc.trials, opts)
				if (err != nil) != tc.wantErr {
					t.Fatalf("workers=%d: err = %v, want error %v", workers, err, tc.wantErr)
				}
				return digestOutcome(t, agg, results)
			}
			wantAgg, wantTrials := run(1)
			if !tc.wantErr && len(wantTrials) != tc.trials {
				t.Fatalf("sequential oracle produced %d results, want %d", len(wantTrials), tc.trials)
			}
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				gotAgg, gotTrials := run(workers)
				if gotAgg != wantAgg {
					t.Errorf("workers=%d: aggregate digest %s, sequential oracle %s", workers, gotAgg, wantAgg)
				}
				if len(gotTrials) != len(wantTrials) {
					t.Fatalf("workers=%d: %d results, sequential oracle %d", workers, len(gotTrials), len(wantTrials))
				}
				for i := range wantTrials {
					if gotTrials[i] != wantTrials[i] {
						t.Errorf("workers=%d trial %d: digest %s, oracle %s", workers, i, gotTrials[i], wantTrials[i])
					}
				}
			}
		})
	}
}

// TestSweepCacheRoundTrip: a warm cache serves every unchanged trial from
// disk (zero re-simulations) and the cached results equal the fresh ones,
// digest by digest and field by field — the digest does not cover the
// main-phase fields DecodeResult refills, so only the field check catches
// a wrong fill. A spec change invalidates the addresses and re-runs.
func TestSweepCacheRoundTrip(t *testing.T) {
	cfg := bgp.DefaultConfig()
	link := topology.NormEdge(0, 1)
	recovery := CliqueTDown(4, cfg, 11)
	recovery.RestoreDelay = time.Second
	noMainRole := CliqueTDown(4, cfg, 11)
	noMainRole.FaultPlan = &faultplan.Plan{Name: "no-main-role", Phases: []faultplan.Phase{
		{Name: "down", Delay: time.Second, Measure: true, Actions: []faultplan.Action{faultplan.FailLink(link)}},
		{Name: "up", Delay: time.Second, Measure: true, Actions: []faultplan.Action{faultplan.RestoreLink(link)}},
	}}
	lateMain := CliqueTDown(4, cfg, 11)
	lateMain.FaultPlan = &faultplan.Plan{Name: "late-main", Phases: []faultplan.Phase{
		{Name: "down", Delay: time.Second, Measure: true, Actions: []faultplan.Action{faultplan.FailLink(link)}},
		{Name: "up", Delay: time.Second, Measure: true, Role: faultplan.RoleMain, Actions: []faultplan.Action{faultplan.RestoreLink(link)}},
	}}
	cases := []struct {
		name     string
		s        Scenario
		main     int
		recovery bool
	}{
		{name: "tdown", s: CliqueTDown(4, cfg, 11)},
		{name: "recovery", s: recovery, recovery: true},
		{name: "no-main-role", s: noMainRole},
		{name: "late-main", s: lateMain, main: 1},
	}
	const trials = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := Repeat(tc.s)
			opts := SweepOptions{Workers: 2, CacheDir: t.TempDir()}
			coldAgg, cold, coldStats, err := RunSweep(gen, trials, opts)
			if err != nil {
				t.Fatal(err)
			}
			if coldStats.Executed != trials || coldStats.CacheMisses != trials {
				t.Fatalf("cold stats %+v, want %d executed misses", coldStats, trials)
			}
			warmAgg, warm, warmStats, err := RunSweep(gen, trials, opts)
			if err != nil {
				t.Fatal(err)
			}
			if warmStats.Executed != 0 || warmStats.CacheHits != trials {
				t.Errorf("warm stats %+v, want 0 executed / %d hits", warmStats, trials)
			}
			coldAggDig, coldTrials := digestOutcome(t, coldAgg, cold)
			warmAggDig, warmTrials := digestOutcome(t, warmAgg, warm)
			if warmAggDig != coldAggDig {
				t.Errorf("cached aggregate digest %s differs from fresh %s", warmAggDig, coldAggDig)
			}
			for i := range cold {
				if warmTrials[i] != coldTrials[i] {
					t.Errorf("trial %d: cached digest %s, fresh %s", i, warmTrials[i], coldTrials[i])
				}
				fresh, cached := *cold[i], *warm[i]
				fresh.Trace, cached.Trace = nil, nil
				if !reflect.DeepEqual(cached, fresh) {
					t.Errorf("trial %d: cached result differs from fresh:\n cached %+v\n fresh  %+v", i, cached, fresh)
				}
				if cached.Main != tc.main || (cached.RecoveryPhase() != nil) != tc.recovery {
					t.Errorf("trial %d: main phase %d, recovery %v; want %d, %v", i, cached.Main, cached.RecoveryPhase() != nil, tc.main, tc.recovery)
				}
				if m := cached.Phases[tc.main]; cached.FailAt != m.InjectAt || !reflect.DeepEqual(cached.Loops, m.Loops) {
					t.Errorf("trial %d: main-phase fields not filled from phase %d", i, tc.main)
				}
			}

			// A config change must miss everything, not serve stale results.
			changed := tc.s
			changed.BGP.MRAI = 15 * time.Second
			_, _, changedStats := sweepDigests(t, Repeat(changed), trials, opts)
			if changedStats.CacheHits != 0 || changedStats.Executed != trials {
				t.Errorf("changed-spec stats %+v, want a full re-run", changedStats)
			}
		})
	}
}

// TestSweepResumeAfterInterrupt interrupts a journaled sweep partway via
// context cancellation (standing in for a kill), then resumes it; the
// resumed sweep must re-simulate only the remainder and reproduce the
// uninterrupted run's digests exactly.
func TestSweepResumeAfterInterrupt(t *testing.T) {
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 23))
	const trials = 6
	wantAgg, wantTrials, _ := sweepDigests(t, gen, trials, SweepOptions{Workers: 1})

	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, _, _, err := RunSweep(gen, trials, SweepOptions{
		Workers:     1,
		JournalPath: journal,
		Context:     ctx,
		Progress: func(trial int, st sweep.Status, src sweep.Source) {
			if st == sweep.StatusDone {
				done++
				if done == 3 {
					cancel() // "kill" the sweep after the 3rd completion
				}
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	cancel()

	gotAgg, gotTrials, stats := sweepDigests(t, gen, trials, SweepOptions{
		Workers: 1, JournalPath: journal, Resume: true,
	})
	if stats.Resumed != 3 || stats.Executed != trials-3 {
		t.Errorf("resume stats %+v, want 3 resumed / %d executed", stats, trials-3)
	}
	if gotAgg != wantAgg {
		t.Errorf("resumed aggregate digest %s, uninterrupted %s", gotAgg, wantAgg)
	}
	for i := range wantTrials {
		if gotTrials[i] != wantTrials[i] {
			t.Errorf("trial %d: resumed digest %s, uninterrupted %s", i, gotTrials[i], wantTrials[i])
		}
	}
}

// TestSweepResumeDerivesJournalFromCache: Resume without an explicit
// JournalPath derives a per-sweep journal under the cache directory, and
// a second resumed run re-simulates nothing.
func TestSweepResumeDerivesJournalFromCache(t *testing.T) {
	dir := t.TempDir()
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 31))
	opts := SweepOptions{Workers: 1, CacheDir: dir, Resume: true}
	_, _, first, err := RunSweep(gen, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 3 {
		t.Fatalf("cold stats %+v", first)
	}
	_, _, second, err := RunSweep(gen, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Resumed+second.CacheHits != 3 {
		t.Errorf("second run stats %+v, want everything served from journal/cache", second)
	}

	// Resume without any persistence location is a configuration error.
	if _, _, _, err := RunSweep(gen, 3, SweepOptions{Resume: true}); err == nil {
		t.Error("Resume without JournalPath or CacheDir accepted")
	}
}

// TestSweepTamperedCacheObjectQuarantined: one digit of PacketsSent
// changed inside a cached result keeps it valid JSON, so only the cache
// checksum can catch it. The rerun quarantines the object, re-executes
// the trial, and digests exactly like the clean run.
func TestSweepTamperedCacheObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 31))
	clean, _, _ := sweepDigests(t, gen, 3, SweepOptions{Workers: 1})
	opts := SweepOptions{Workers: 1, CacheDir: dir}
	sweepDigests(t, gen, 3, opts)

	scenario, err := gen(1)
	if err != nil {
		t.Fatal(err)
	}
	key := scenario.CacheKey()
	obj := filepath.Join(dir, "objects", key[:2], key)
	data, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	field := []byte(`"PacketsSent":`)
	at := bytes.Index(data, field) + len(field)
	if at < len(field) || data[at] < '0' || data[at] > '9' {
		t.Fatalf("no PacketsSent digit in %s", obj)
	}
	data[at] = '0' + (data[at]-'0'+1)%10
	if err := os.WriteFile(obj, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, _, stats := sweepDigests(t, gen, 3, opts)
	if stats.Quarantined != 1 || stats.Executed != 1 || stats.CacheHits != 2 {
		t.Errorf("stats %+v, want 1 quarantined / 1 executed / 2 hits", stats)
	}
	if got != clean {
		t.Errorf("digest after tamper = %s, want the clean %s", got, clean)
	}
}

// TestScenarioCacheKey pins the content-address semantics: stability,
// sensitivity to outcome-relevant fields, insensitivity to defaulting,
// and refusal of scenarios the key cannot capture.
func TestScenarioCacheKey(t *testing.T) {
	base := CliqueTDown(4, bgp.DefaultConfig(), 5)
	k1 := base.CacheKey()
	if k1 == "" {
		t.Fatal("default scenario must be cacheable")
	}
	if k2 := base.CacheKey(); k2 != k1 {
		t.Errorf("key not stable: %s vs %s", k1, k2)
	}

	// Spelling out a default must not change the address.
	explicit := base
	explicit.LinkDelay = 2 * time.Millisecond
	explicit.SettleDelay = time.Second
	if explicit.CacheKey() != k1 {
		t.Error("explicitly spelling out default delays changed the key")
	}

	// Every outcome-relevant change must change it.
	perturb := []struct {
		name  string
		apply func(*Scenario)
	}{
		{"seed", func(s *Scenario) { s.Seed = 6 }},
		{"mrai", func(s *Scenario) { s.BGP.MRAI = 5 * time.Second }},
		{"enhancement", func(s *Scenario) { s.BGP.Enhancements.SSLD = true }},
		{"damping", func(s *Scenario) { s.BGP.Damping = bgp.DefaultDamping() }},
		{"dest", func(s *Scenario) { s.Dest = 1 }},
		{"flapcycles", func(s *Scenario) { s.FlapCycles = 1 }},
		{"graph", func(s *Scenario) { s.Graph = topology.Clique(5) }},
	}
	seen := map[string]string{k1: "base"}
	for _, p := range perturb {
		ps := base
		p.apply(&ps)
		k := ps.CacheKey()
		if k == "" {
			t.Errorf("%s: perturbed scenario not cacheable", p.name)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", p.name, prev)
		}
		seen[k] = p.name
	}

	// Scenarios whose outcome the key cannot see must refuse caching.
	s := base
	s.TraceLimit = 10
	if s.CacheKey() != "" {
		t.Error("traced scenario must be uncacheable")
	}
	s = base
	s.BGP.PolicyFor = func(topology.Node) routing.Policy { return routing.ShortestPath{} }
	if s.CacheKey() != "" {
		t.Error("PolicyFor scenario must be uncacheable")
	}
	s = base
	s.BGP.Export = bgp.GaoRexfordExport{}
	if s.CacheKey() != "" {
		t.Error("unfingerprinted export policy must be uncacheable")
	}
}
