package bgploop_test

// One benchmark per paper figure (4a..9d) plus ablation and substrate
// micro-benchmarks. The figure benchmarks run a reduced sweep grid per
// iteration (virtual time is free; wall time tracks event counts) and
// additionally report headline metrics from the sweep via b.ReportMetric,
// so `go test -bench=.` doubles as a compact reproduction report.
//
// Full paper-scale figures are regenerated with `go run ./cmd/bgpfig`.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"bgploop"
	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/dist"
	"bgploop/internal/experiment"
	"bgploop/internal/figures"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/wire"
)

// benchScale is a small grid that still exercises every sweep dimension.
func benchScale() figures.Scale {
	return figures.Scale{
		CliqueSizes:     []int{5, 8},
		BCliqueSizes:    []int{5},
		InternetSizes:   []int{29},
		MRAIs:           []time.Duration{10 * time.Second, 20 * time.Second},
		CliqueMRAISize:  6,
		BCliqueMRAISize: 5,
		Trials:          1,
		InternetTrials:  1,
		Seed:            1,
		BGP:             bgploop.DefaultConfig(),
	}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	var lastCell float64
	for i := 0; i < b.N; i++ {
		tbl, err := figures.Run(id, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		v, err := strconv.ParseFloat(last[len(last)-1], 64)
		if err == nil {
			lastCell = v
		}
	}
	b.ReportMetric(lastCell, "last-cell")
}

// Figures 4a-4c: overall looping duration vs convergence time.
func BenchmarkFig4a(b *testing.B) { benchFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, "4c") }

// Figures 5a-5b: MRAI sweeps of looping duration and convergence.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") }

// Figures 6a-6c: TTL exhaustions and looping ratio vs size.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "6c") }

// Figures 7a-7b: TTL exhaustions and looping ratio vs MRAI.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") }

// Figures 8a-8d: T_down enhancement comparison.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "8a") }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "8b") }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "8c") }
func BenchmarkFig8d(b *testing.B) { benchFigure(b, "8d") }

// Figures 9a-9d: T_long enhancement comparison.
func BenchmarkFig9a(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, "9b") }
func BenchmarkFig9c(b *testing.B) { benchFigure(b, "9c") }
func BenchmarkFig9d(b *testing.B) { benchFigure(b, "9d") }

// Extension figures x1-x7 (message overhead, loop distributions,
// topology/policy/delay/damping ablations, recovery phases).
func BenchmarkFigX1(b *testing.B) { benchFigure(b, "x1") }
func BenchmarkFigX2(b *testing.B) { benchFigure(b, "x2") }
func BenchmarkFigX3(b *testing.B) { benchFigure(b, "x3") }
func BenchmarkFigX4(b *testing.B) { benchFigure(b, "x4") }
func BenchmarkFigX5(b *testing.B) { benchFigure(b, "x5") }
func BenchmarkFigX6(b *testing.B) { benchFigure(b, "x6") }
func BenchmarkFigX7(b *testing.B) { benchFigure(b, "x7") }

// --- ablations ----------------------------------------------------------

// benchScenario runs one scenario per iteration and reports its
// convergence time and TTL exhaustions.
func benchScenario(b *testing.B, s bgploop.Scenario) {
	b.Helper()
	b.ReportAllocs()
	var conv, exh float64
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		rep, err := bgploop.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		conv = rep.ConvergenceTime.Seconds()
		exh = float64(rep.TTLExhaustions)
	}
	b.ReportMetric(conv, "conv-s")
	b.ReportMetric(exh, "exhaustions")
}

// AblationSSLDTiming quantifies the SSLD interpretation gap discussed in
// DESIGN.md/EXPERIMENTS.md: the literal-text immediate withdrawal vs the
// SSFNET-calibrated announcement-gated withdrawal.
func BenchmarkAblationSSLDCalibrated(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.SSLD = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

func BenchmarkAblationSSLDImmediate(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.SSLD = true
	cfg.Enhancements.SSLDImmediate = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationMRAIModel compares the reset timer model (default) against the
// free-running continuous model.
func BenchmarkAblationMRAIReset(b *testing.B) {
	benchScenario(b, bgploop.CliqueTDown(10, bgploop.DefaultConfig(), 1))
}

func BenchmarkAblationMRAIContinuous(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.MRAIContinuous = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationJitter removes MRAI jitter, showing how synchronised timers
// change convergence (the paper always jitters).
func BenchmarkAblationNoJitter(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.JitterMin, cfg.JitterMax = 1.0, 1.0
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationCombined stacks the two winning enhancements, an experiment the
// paper leaves open.
func BenchmarkAblationAssertionPlusGhostFlush(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.Assertion = true
	cfg.Enhancements.GhostFlushing = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationMRAIZero removes rate limiting entirely. On small topologies
// convergence collapses to processing speed, but on a clique of 10 the
// unthrottled update storm saturates the serial route processors and
// convergence balloons past the MRAI-30s baseline (611 s vs 130 s
// measured) — the message-suppression role of the MRAI timer that [5]
// documents and §3 leans on, demonstrated by ablation.
func BenchmarkAblationMRAIZero(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.MRAI = 0
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// --- substrate micro-benchmarks ------------------------------------------

// BenchmarkControlPlaneCliqueTDown measures raw simulator throughput on
// the heaviest standard workload (events/sec shows up as ns/op).
func BenchmarkControlPlaneClique20(b *testing.B) {
	benchScenario(b, bgploop.CliqueTDown(20, bgploop.DefaultConfig(), 1))
}

// BenchmarkWireUpdateRoundTrip measures the RFC 4271 codec.
func BenchmarkWireUpdateRoundTrip(b *testing.B) {
	up := bgp.Update{Dest: 0, Path: routing.Path{5, 6, 4, 3, 2, 1, 0}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, err := wire.EncodeSimUpdate(5, up)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeSimUpdate(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayThroughput measures raw data-plane replay speed over a
// permanently looping FIB (worst case: every packet burns a full TTL).
func BenchmarkReplayThroughput(b *testing.B) {
	h := dataplane.NewHistory(3)
	if err := h.Record(0, 1, 2); err != nil {
		b.Fatal(err)
	}
	if err := h.Record(0, 2, 1); err != nil {
		b.Fatal(err)
	}
	cfg := dataplane.ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1},
		Start:   0,
		End:     10 * time.Second,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataplane.Replay(h, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the sweep executor on the paper's
// headline topology: the same 8-trial Internet(110) T_down sweep at
// -j 1 (the sequential oracle) and -j GOMAXPROCS. The aggregate is
// byte-identical at both widths; only the wall clock differs. The j=1/j=N
// ns/op ratio is the speedup recorded in BENCH_sweep.json (on a 1-core
// runner the two are expected to tie).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	gen := experiment.InternetTDown(110, bgp.DefaultConfig(), 1)
	const trials = 8
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		agg, _, _, err := experiment.RunSweep(gen, trials, experiment.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		ratio = agg.LoopingRatio.Mean
	}
	b.ReportMetric(ratio, "looping-ratio")
}

func BenchmarkSweepParallel(b *testing.B) {
	b.Run("j=1", func(b *testing.B) { benchSweep(b, 1) })
	b.Run(fmt.Sprintf("j=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) { benchSweep(b, 0) })
}

// BenchmarkDistThroughput measures the distributed sweep executor over
// in-process loopback HTTP workers: the same 8-trial clique(6) T_down
// sweep run locally (the oracle path) and through a coordinator with
// {1, 4} workers pulling leased chunks over HTTP. The digests are
// byte-identical by construction (the distributed path merges through
// the same executor); what this measures is the wire-and-lease tax. On
// a 1-core runner the distributed variants cannot win — the numbers and
// that caveat are recorded in BENCH_dist.json.
func benchDist(b *testing.B, workers int) {
	b.Helper()
	var spec experiment.ScenarioSpec
	if err := json.Unmarshal([]byte(`{"topology": {"family": "clique", "size": 6}, "event": "tdown", "seed": 5}`), &spec); err != nil {
		b.Fatal(err)
	}
	const trials = 8
	sc, err := spec.Scenario()
	if err != nil {
		b.Fatal(err)
	}
	gen := experiment.Repeat(sc)
	b.ReportAllocs()

	if workers == 0 { // local baseline, same in-flight width
		for i := 0; i < b.N; i++ {
			if _, _, _, err := experiment.RunSweep(gen, trials, experiment.SweepOptions{Workers: trials}); err != nil {
				b.Fatal(err)
			}
		}
		return
	}

	c, err := dist.New(dist.Config{ChunkSize: 2})
	if err != nil {
		b.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sleep := func(ctx context.Context, d time.Duration) {
		if d > time.Millisecond {
			d = time.Millisecond
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	for i := 0; i < workers; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator:  ts.URL,
			PollInterval: time.Millisecond,
			BackoffBase:  time.Millisecond,
			Sleep:        sleep,
		})
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = w.Run(ctx) }()
	}
	specBytes, err := dist.EncodeSweepSpec(spec, trials)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := c.StartSweep(fmt.Sprintf("bench/%d", i), specBytes, trials)
		if err != nil {
			b.Fatal(err)
		}
		_, _, stats, err := experiment.RunSweep(gen, trials, experiment.SweepOptions{
			Workers: trials,
			Remote:  sw.Execute,
		})
		sw.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Remote != trials {
			b.Fatalf("stats.Remote = %d, want %d", stats.Remote, trials)
		}
	}
}

func BenchmarkDistThroughput(b *testing.B) {
	b.Run("local", func(b *testing.B) { benchDist(b, 0) })
	b.Run("w=1", func(b *testing.B) { benchDist(b, 1) })
	b.Run("w=4", func(b *testing.B) { benchDist(b, 4) })
}

// BenchmarkInternet110TDown is the paper's headline topology.
func BenchmarkInternet110TDown(b *testing.B) {
	gen := experiment.InternetTDown(110, bgp.DefaultConfig(), 1)
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := gen(i)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := bgploop.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.LoopingRatio
	}
	b.ReportMetric(ratio, "looping-ratio")
}
