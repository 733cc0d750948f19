package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
)

// pipeline replays the per-trial path of a cache-backed sweep from the
// layers' public calls, with every call timed as a span: generate the
// scenario, preflight it, rebuild the trial layer by layer, then encode,
// decode and digest its result and put, get and journal it in a sweep
// cache of its own.
type pipeline struct {
	tr      *Tracer
	fs      *timingFS
	cache   *sweep.Cache
	journal *sweep.Journal

	mu     sync.Mutex
	cur    int // span fsyncs belong under
	curTrc string

	samples []pipelineSample
}

// pipelineSample is what one traced trial measured.
type pipelineSample struct {
	// Run is the part of the traced trial that mirrors experiment.Run
	// (generate, DES, replay, loop extraction); Untraced is the same
	// trial's wall time in the untraced run.
	Run, Untraced time.Duration
	RB            *rebuilt

	Preflight, Encode, Decode, Digest time.Duration
	CachePut, CacheGet, Journal       time.Duration
	ResultBytes                       int
}

func newPipeline(tr *Tracer, dir string) (*pipeline, error) {
	p := &pipeline{tr: tr}
	p.fs = newTimingFS(tr, func() (string, int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.curTrc, p.cur
	})
	var err error
	if p.cache, err = sweep.OpenCacheFS(filepath.Join(dir, "cache"), p.fs); err != nil {
		return nil, err
	}
	if p.journal, err = sweep.OpenJournalOpts(filepath.Join(dir, "journal.jsonl"), false, sweep.JournalOptions{FS: p.fs}); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pipeline) close() error { return p.journal.Close() }

// span times fn as a span named name under parent and makes it the
// parent of any fsync it causes.
func (p *pipeline) span(trace string, parent int, name string, fn func() error) (time.Duration, error) {
	id := p.tr.Begin(trace, parent, name, false)
	p.mu.Lock()
	p.curTrc, p.cur = trace, id
	p.mu.Unlock()
	err := fn()
	sp := p.tr.End(id)
	p.mu.Lock()
	p.cur = parent
	p.mu.Unlock()
	return sp.Dur(), err
}

// trial traces one trial: gen builds its scenario, res is the result the
// untraced run produced for it, untraced that run's wall time. It
// returns a non-empty mismatch when the rebuilt trial or the codec round
// trip disagrees with res.
func (p *pipeline) trial(trace string, index int, gen func() (experiment.Scenario, error), res *experiment.Result, untraced time.Duration) (mismatch string, err error) {
	root := p.tr.Begin(trace, 0, "trial", false)
	defer p.tr.End(root)
	smp := pipelineSample{Untraced: untraced}

	var s experiment.Scenario
	smp.Run, err = p.span(trace, root, "trial.run", func() error {
		run := p.cur
		if _, err := p.span(trace, run, "experiment.generate", func() error {
			var err error
			s, err = gen()
			return err
		}); err != nil {
			return err
		}
		var err error
		smp.RB, err = rebuildTrial(s, p.tr, trace, run)
		return err
	})
	if err != nil {
		return "", err
	}
	if d := smp.RB.matches(res); d != "" {
		return fmt.Sprintf("trial %d: rebuilt trial differs from experiment.Run: %s", index, d), nil
	}
	if smp.Preflight, err = p.span(trace, root, "safety.preflight", func() error {
		_, err := experiment.PreflightVerdict(s)
		return err
	}); err != nil {
		return "", err
	}

	var (
		data      []byte
		decoded   *experiment.Result
		digest    string
		persisted []byte
	)
	persist := []struct {
		name string
		d    *time.Duration
		fn   func() error
	}{
		{"experiment.encode", &smp.Encode, func() (err error) { data, err = experiment.EncodeResult(res); return err }},
		{"experiment.decode", &smp.Decode, func() (err error) { decoded, err = experiment.DecodeResult(data); return err }},
		{"experiment.digest", &smp.Digest, func() (err error) { digest, err = experiment.DigestResult(res); return err }},
		{"sweep.cache_put", &smp.CachePut, func() error { return p.cache.Put(s.CacheKey(), data) }},
		{"sweep.cache_get", &smp.CacheGet, func() (err error) {
			var ok bool
			persisted, ok, err = p.cache.Get(s.CacheKey())
			if err == nil && !ok {
				err = fmt.Errorf("cache miss right after put")
			}
			return err
		}},
		{"sweep.journal_append", &smp.Journal, func() error { return p.journal.Append(index, s.CacheKey(), data) }},
	}
	for _, step := range persist {
		if *step.d, err = p.span(trace, root, step.name, step.fn); err != nil {
			return "", fmt.Errorf("%s: %w", step.name, err)
		}
	}
	smp.ResultBytes = len(data)
	if d2, err := experiment.DigestResult(decoded); err != nil || d2 != digest {
		return fmt.Sprintf("trial %d: decoded result digests %s, encoded %s (%v)", index, d2, digest, err), nil
	}
	if !bytes.Equal(persisted, data) {
		return fmt.Sprintf("trial %d: cache returned %d bytes, put %d", index, len(persisted), len(data)), nil
	}
	p.samples = append(p.samples, smp)
	return "", nil
}

// report sets the per-layer metrics of the trial path from the samples.
func (p *pipeline) report(rep *Report) {
	var (
		run, des, replay, loops                    time.Duration
		desMS, desEvents, desNS, desKB             []float64
		updates, best, msgs, fib                   []float64
		repMS, packets, hops, hopNS, ttl, repKB    []float64
		loopMS, instants, nloops                   []float64
		enc, dec, dig, size, get, put, jrn, pre, o []float64
	)
	for _, s := range p.samples {
		rb := s.RB
		run += s.Run
		des += rb.DESTime
		replay += rb.ReplayTime
		loops += rb.LoopTime
		desMS = append(desMS, ms(rb.DESTime))
		desEvents = append(desEvents, float64(rb.Events))
		if rb.Events > 0 {
			desNS = append(desNS, float64(rb.DESTime)/float64(rb.Events))
		}
		desKB = append(desKB, float64(rb.DESAlloc)/1e3)
		updates = append(updates, float64(rb.Updates))
		best = append(best, float64(rb.BestChange))
		msgs = append(msgs, float64(rb.Messages))
		fib = append(fib, float64(rb.FIBChanges))
		repMS = append(repMS, ms(rb.ReplayTime))
		packets = append(packets, float64(rb.Replay.Sent))
		hops = append(hops, float64(rb.Hops))
		if rb.Hops > 0 {
			hopNS = append(hopNS, float64(rb.ReplayTime)/float64(rb.Hops))
		}
		ttl = append(ttl, float64(rb.Replay.TTLExhausted))
		repKB = append(repKB, float64(rb.ReplayAlloc)/1e3)
		loopMS = append(loopMS, ms(rb.LoopTime))
		instants = append(instants, float64(rb.ChangeInstants))
		nloops = append(nloops, float64(rb.AllLoops))
		enc = append(enc, us(s.Encode))
		dec = append(dec, us(s.Decode))
		dig = append(dig, us(s.Digest))
		size = append(size, float64(s.ResultBytes))
		get = append(get, us(s.CacheGet))
		put = append(put, us(s.CachePut))
		jrn = append(jrn, us(s.Journal))
		pre = append(pre, ms(s.Preflight))
		if s.Untraced > 0 {
			o = append(o, float64(s.Run)/float64(s.Untraced))
		}
	}
	share := func(d time.Duration) float64 {
		if run == 0 {
			return 0
		}
		return float64(d) / float64(run)
	}
	rep.set("des.run_ms", median(desMS))
	rep.set("des.share", share(des))
	rep.set("des.events", median(desEvents))
	rep.set("des.ns_per_event", median(desNS))
	rep.set("des.alloc_kb", median(desKB))
	rep.set("bgp.updates", median(updates))
	rep.set("bgp.best_changes", median(best))
	rep.set("netsim.messages", median(msgs))
	rep.set("dataplane.fib_changes", median(fib))
	rep.set("dataplane.replay_ms", median(repMS))
	rep.set("dataplane.share", share(replay))
	rep.set("dataplane.packets", median(packets))
	rep.set("dataplane.hops", median(hops))
	rep.set("dataplane.ns_per_hop", median(hopNS))
	rep.set("dataplane.ttl_exhausted", median(ttl))
	rep.set("dataplane.alloc_kb", median(repKB))
	rep.set("loopanalysis.findloops_ms", median(loopMS))
	rep.set("loopanalysis.share", share(loops))
	rep.set("loopanalysis.change_instants", median(instants))
	rep.set("loopanalysis.loops", median(nloops))
	rep.set("experiment.encode_us", median(enc))
	rep.set("experiment.decode_us", median(dec))
	rep.set("experiment.digest_us", median(dig))
	rep.set("experiment.result_bytes", median(size))
	rep.set("sweep.cache_get_us", median(get))
	rep.set("sweep.cache_put_us", median(put))
	rep.set("sweep.journal_append_us", median(jrn))
	rep.set("safety.preflight_ms", median(pre))
	rep.set("trace.overhead", median(o))
	rep.note("traced trials: %d (layer shares of trial.run: des %.3f, dataplane %.3f, loopanalysis %.3f)",
		len(p.samples), share(des), share(replay), share(loops))
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
