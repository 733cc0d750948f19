package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/dist"
	"bgploop/internal/experiment"
	"bgploop/internal/serve"
	"bgploop/internal/topology"
)

// servedFamilies are the job kinds of served-mixed, all within bgpd's
// default 64-node limit. The Internet-like graph is fixed like the sweep
// workloads', and its T_down fails a stub AS (its first lowest-degree
// node), as the paper does.
func servedFamilies(tiny bool) ([]experiment.ScenarioSpec, error) {
	internet, clique, bclique := 48, 15, 8
	if tiny {
		internet, clique, bclique = 12, 5, 4
	}
	g, err := topology.InternetLike(internet, topologySeed)
	if err != nil {
		return nil, err
	}
	stub := int(topology.LowestDegreeNodes(g)[0])
	// Each spec is one job family; the clients set the seed per job.
	return []experiment.ScenarioSpec{
		{Topology: experiment.TopologySpec{Family: "internet", Size: internet, Seed: topologySeed}, Event: "tdown", Dest: &stub},
		{Topology: experiment.TopologySpec{Family: "clique", Size: clique}, Event: "tdown"},
		{Topology: experiment.TopologySpec{Family: "bclique", Size: bclique}, Event: "tlong", Enhancements: map[string]bool{"ssld": true}},
		{Topology: experiment.TopologySpec{Family: "figure1"}, Event: "tlong"},
	}, nil
}

// clientInputs draws one closed-loop client's job sequence from the
// workload seed. Jobs are dealt from a shuffled deck holding every
// (family, 4-8 trials) pair once, so every run submits the same mix in a
// seed-dependent order. A job's seed window starts ceil(width/2) before
// the end of the client's previous window of the same family, so about
// half of each job's trials were already computed (cache hits) and the
// rest are new (executed and persisted). Windows start from the same
// trial seed in every run; the workload seed moves their boundaries.
type clientInputs struct {
	rng      *rand.Rand
	families []experiment.ScenarioSpec
	base     int64   // first trial seed of this client
	cursor   []int64 // per family: end of the previous window
	deck     []deal
}

// deal is one job's family and trial count.
type deal struct{ family, trials int }

func newClientInputs(seed int64, client int, families []experiment.ScenarioSpec) *clientInputs {
	return &clientInputs{
		rng:      des.NewRNG(seed).Stream(fmt.Sprintf("perfbench/served/client/%d", client)),
		families: families,
		base:     int64(client) * 100_000,
		cursor:   make([]int64, len(families)),
	}
}

// warm reports whether the client has sent a job of every family. Until
// then its jobs find nothing of their family cached, so they are not
// the mix the workload measures.
func (c *clientInputs) warm() bool {
	for _, end := range c.cursor {
		if end == 0 {
			return false
		}
	}
	return true
}

// request is one job submission.
type request struct {
	family int
	run    serve.RunRequest
}

func (c *clientInputs) draw() request {
	if len(c.deck) == 0 {
		for f := range c.families {
			for trials := 4; trials <= 8; trials++ {
				c.deck = append(c.deck, deal{f, trials})
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	d := c.deck[0]
	c.deck = c.deck[1:]
	start := max(c.cursor[d.family]-int64((d.trials+1)/2), 0)
	c.cursor[d.family] = start + int64(d.trials)
	spec := c.families[d.family]
	spec.Seed = c.base + int64(d.family)*10_000 + start
	return request{family: d.family, run: serve.RunRequest{Spec: spec, Trials: d.trials}}
}

// servedEnv is one in-process bgpd: serve.Server with a job WAL, cache
// and journals under a fresh store directory, a dist coordinator mounted
// on its mux, and nproc dist workers, all on loopback HTTP.
type servedEnv struct {
	dir     string
	base    string
	coord   *dist.Coordinator
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error

	workerTransport *http.Transport
	rt              *timingTransport
	fs              *timingFS
	cancelWorkers   context.CancelFunc
	workersDone     sync.WaitGroup
}

// startServed brings up a served environment the way cmd/bgpd configures
// production (wall clock, default limits and dist settings, strict
// preflight, sleeping workers) and returns it once every worker has
// registered, with the time that took. With a tracer, the store's file
// operations and the workers' HTTP calls are timed.
func startServed(root string, tr *Tracer) (*servedEnv, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, 0, err
	}
	n := runtime.GOMAXPROCS(0)
	e := &servedEnv{dir: dir, workerTransport: &http.Transport{MaxIdleConnsPerHost: 8}}
	var fsys *timingFS
	var rt http.RoundTripper = e.workerTransport
	if tr != nil {
		fsys = newTimingFS(tr, nil)
		e.fs = fsys
		e.rt = &timingTransport{inner: e.workerTransport, tracer: tr}
		rt = e.rt
	}
	registered := &registerWatch{inner: rt, done: make(chan struct{}, n)}
	distCfg := dist.Config{
		ChunkSize: 4,                // bgpd -dist-chunk default
		LeaseTTL:  60 * time.Second, // bgpd -dist-lease-ttl default
		HedgeLast: 2,                // bgpd -dist-hedge default
		StoreDir:  dir,
		Now:       time.Now,
	}
	srvCfg := serve.Config{
		StoreDir:  dir,
		Preflight: serve.PreflightStrict,
		Now:       time.Now,
	}
	if fsys != nil {
		distCfg.FS = fsys
		srvCfg.FS = fsys
	}
	if e.coord, err = dist.New(distCfg); err != nil {
		return nil, 0, err
	}
	srvCfg.Dist = e.coord
	if e.srv, err = serve.New(srvCfg); err != nil {
		_ = e.coord.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = e.srv.Drain(context.Background())
		_ = e.coord.Close()
		return nil, 0, err
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	e.cancelWorkers = cancel
	for k := 0; k < n; k++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator:  e.base,
			Name:         fmt.Sprintf("perfbench-%d", k),
			Client:       &http.Client{Transport: registered},
			Parallelism:  1,                      // bgpd -j default
			PollInterval: 250 * time.Millisecond, // bgpd -poll-interval default
			Sleep:        sleepCtx,
		})
		if err != nil {
			_ = e.close()
			return nil, 0, err
		}
		e.workersDone.Add(1)
		go func() {
			defer e.workersDone.Done()
			_ = w.Run(ctx)
		}()
	}
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for k := 0; k < n; k++ {
		select {
		case <-registered.done:
		case <-timeout.C:
			_ = e.close()
			return nil, 0, errors.New("dist workers did not register within 30s")
		}
	}
	return e, time.Since(start), nil
}

// registerWatch signals done once per successful worker registration.
type registerWatch struct {
	inner http.RoundTripper
	done  chan struct{} // buffered for every worker
}

func (r *registerWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.inner.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.URL.Path == "/v1/work/register" {
		select {
		case r.done <- struct{}{}:
		default:
		}
	}
	return resp, err
}

// sleepCtx waits for d or until ctx ends, as cmd/bgpd's worker mode does.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// close drains the server, stops the workers and the listener, and
// removes the store.
func (e *servedEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.cancelWorkers()
	e.workersDone.Wait()
	// Every job has finished and every worker has exited, so nothing is
	// left to wait for. Shutdown would wait 5s on a connection a canceled
	// worker opened but never sent a request on.
	if serr := e.httpSrv.Close(); serr != nil && err == nil {
		err = serr
	}
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.workerTransport.CloseIdleConnections()
	if cerr := e.coord.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	client int
	req    request
	errMsg string
	view   serve.JobView

	sent, submitted, started, end time.Time
	trialEvents                   []time.Time
}

func (j *jobRecord) terminal() bool { return !j.end.IsZero() }

// window is what the closed-loop clients did in one measured window.
type window struct {
	// warmup are the jobs each client sent before the window, until it
	// had sent one of every family; they are checked but not measured.
	warmup     []*jobRecord
	jobs       []*jobRecord
	first, end time.Time
	allocs     uint64
	peak       uint64
}

// drive runs the closed-loop clients against e until the window ends:
// each client POSTs a job, follows its event stream to the terminal
// event, reads the job, and only then sends its next job. Jobs sent
// before the window ends are followed to completion. The window opens
// once every client is warm.
func drive(e *servedEnv, inputs []*clientInputs, length time.Duration) (*window, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 8}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	w := &window{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, len(inputs))

	for c, in := range inputs {
		for !in.warm() {
			j := &jobRecord{client: c, req: in.draw()}
			if err := runJob(client, e.base, j); err != nil {
				return nil, err
			}
			w.warmup = append(w.warmup, j)
		}
	}
	stop := make(chan struct{})
	peak := heapPeak(5*time.Millisecond, stop)
	alloc0 := heapAllocs()
	w.first = time.Now()
	deadline := w.first.Add(length)
	for c, in := range inputs {
		wg.Add(1)
		go func(c int, in *clientInputs) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := &jobRecord{client: c, req: in.draw()}
				err := runJob(client, e.base, j)
				mu.Lock()
				w.jobs = append(w.jobs, j)
				mu.Unlock()
				if err != nil {
					errc <- err
					return
				}
			}
		}(c, in)
	}
	wg.Wait()
	w.end = time.Now()
	w.allocs = heapAllocs() - alloc0
	close(stop)
	w.peak = <-peak
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	sort.Slice(w.jobs, func(a, b int) bool { return w.jobs[a].sent.Before(w.jobs[b].sent) })
	return w, nil
}

// runJob submits j and follows it to its terminal event. A refused
// submission is recorded on j, not returned; the error is for transport
// failures that end the run.
func runJob(client *http.Client, base string, j *jobRecord) error {
	body, err := json.Marshal(j.req.run)
	if err != nil {
		return err
	}
	j.sent = time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var v serve.JobView
	derr := json.NewDecoder(resp.Body).Decode(&v)
	_ = resp.Body.Close()
	j.submitted = time.Now()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		j.errMsg = fmt.Sprintf("submit refused with status %d", resp.StatusCode)
		return nil
	}
	if derr != nil {
		return derr
	}

	resp, err = client.Get(base + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			_ = resp.Body.Close()
			return err
		}
		now := time.Now()
		switch ev.Type {
		case "started":
			j.started = now
		case "trial":
			if ev.Status == "done" {
				j.trialEvents = append(j.trialEvents, now)
			}
		case "done", "failed", "canceled":
			j.end = now
		}
		if j.terminal() {
			break
		}
	}
	_ = resp.Body.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	if !j.terminal() {
		return fmt.Errorf("job %s: event stream ended before a terminal event", v.ID)
	}
	if j.started.IsZero() {
		j.started = j.end
	}

	resp, err = client.Get(base + "/v1/runs/" + v.ID)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	return json.NewDecoder(resp.Body).Decode(&j.view)
}

// trialKey names one trial of a job by its spec with the trial's seed.
func trialKey(spec experiment.ScenarioSpec, seed int64) (string, error) {
	spec.Seed = seed
	b, err := json.Marshal(spec)
	return string(b), err
}

// oracleStore keeps the digests of trials the oracle has run, by
// trialKey, in a file named after the hash of the benchmark binary, so
// later runs of the same build reuse them instead of simulating again.
type oracleStore struct {
	path    string
	digests map[string]string
}

func openOracleStore(dir string) (*oracleStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	s := &oracleStore{
		path:    filepath.Join(dir, "oracle", hex.EncodeToString(sum[:8])+".json"),
		digests: map[string]string{},
	}
	data, err := os.ReadFile(s.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(data, &s.digests); err != nil {
		return nil, fmt.Errorf("oracle store %s: %w", s.path, err)
	}
	return s, nil
}

func (s *oracleStore) save() error {
	data, err := json.Marshal(s.digests)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}

// localRun runs the given trial specs through a local
// experiment.RunSweep.
func localRun(specs []experiment.ScenarioSpec) ([]*experiment.Result, error) {
	gen := func(i int) (experiment.Scenario, error) { return specs[i].Scenario() }
	_, results, _, err := experiment.RunSweep(gen, len(specs), experiment.SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, fmt.Errorf("local sweep: %w", err)
	}
	return results, nil
}

// oracle makes sure the store holds the digest of every trial of the
// jobs: the distinct trials it lacks run through a local
// experiment.RunSweep, outside any timed window. It returns how many
// trials it ran.
func (s *oracleStore) oracle(jobs []*jobRecord) (int, error) {
	var (
		keys  []string
		specs []experiment.ScenarioSpec
		seen  = map[string]bool{}
	)
	for _, j := range jobs {
		for t := 0; t < j.req.run.Trials; t++ {
			seed := j.req.run.Spec.Seed + int64(t)
			k, err := trialKey(j.req.run.Spec, seed)
			if err != nil {
				return 0, err
			}
			if _, ok := s.digests[k]; ok || seen[k] {
				continue
			}
			seen[k] = true
			spec := j.req.run.Spec
			spec.Seed = seed
			keys = append(keys, k)
			specs = append(specs, spec)
		}
	}
	if len(keys) == 0 {
		return 0, nil
	}
	results, err := localRun(specs)
	if err != nil {
		return 0, err
	}
	for i, k := range keys {
		d, err := experiment.DigestResult(results[i])
		if err != nil {
			return 0, err
		}
		s.digests[k] = d
	}
	return len(keys), s.save()
}

// checkJobs compares every served job with the oracle: the job must be
// done with one digest per trial, each equal to the local run's.
func checkJobs(jobs []*jobRecord, digests map[string]string, rep *Report) error {
	for _, j := range jobs {
		rep.Attempted++
		switch {
		case j.errMsg != "":
			rep.fail("client %d: %s", j.client, j.errMsg)
			continue
		case j.view.State != serve.StateDone:
			rep.fail("%s ended %s: %s", j.view.ID, j.view.State, j.view.Error)
			continue
		case len(j.view.ResultDigests) != j.req.run.Trials:
			rep.fail("%s: %d digests for %d trials", j.view.ID, len(j.view.ResultDigests), j.req.run.Trials)
			continue
		}
		for t, got := range j.view.ResultDigests {
			k, err := trialKey(j.req.run.Spec, j.req.run.Spec.Seed+int64(t))
			if err != nil {
				return err
			}
			if want := digests[k]; got != want {
				rep.fail("%s trial %d: served digest %s, local RunSweep %s", j.view.ID, t, got, want)
				break
			}
		}
	}
	return nil
}

// checkServed runs the oracle over jobs and checks them against it.
func checkServed(o Options, jobs []*jobRecord, rep *Report) (*oracleStore, error) {
	store, err := openOracleStore(o.StateDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ran, err := store.oracle(jobs)
	if err != nil {
		return nil, err
	}
	rep.note("oracle: %d distinct trials run locally in %.2fs (%d digests stored for this build)",
		ran, time.Since(start).Seconds(), len(store.digests))
	return store, checkJobs(jobs, store.digests, rep)
}

// runServed is the served-mixed workload.
func runServed(o Options) (*Report, error) {
	families, err := servedFamilies(o.Tiny)
	if err != nil {
		return nil, err
	}
	newInputs := func() []*clientInputs {
		return []*clientInputs{newClientInputs(o.Seed, 0, families), newClientInputs(o.Seed, 1, families)}
	}
	inputs := newInputs()

	rep := &Report{}
	var (
		env    *servedEnv
		setups []float64
	)
	// setUp starts reps environments in turn and keeps the last one
	// running (keep) or closes it.
	setUp := func(reps int, keep bool) error {
		for i := 0; i < reps; i++ {
			runtime.GC() // a collection left over from earlier work would land in the timing
			e, d, err := startServed(o.WorkDir, nil)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
			if keep && i == reps-1 {
				env = e
			} else if err := e.close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setUp(setupReps/2, true); err != nil {
		return nil, err
	}
	length := o.Window
	if o.Trace {
		length = o.Window / 2
	}
	untraced, err := drive(env, inputs, length)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !o.Trace {
		// Flush the window's writeback, or it lands in the set-ups' file
		// operations.
		syscall.Sync()
		if err := setUp(setupReps-setupReps/2, false); err != nil {
			return nil, err
		}
		if _, err := checkServed(o, append(untraced.warmup, untraced.jobs...), rep); err != nil {
			return nil, err
		}
		rep.set("setup_s", median(setups))
		rep.note("set-up: %s", fmtSamples(setups, 1e3, "ms"))
		untraced.report(rep)
		return rep, nil
	}
	return rep, tracedServed(o, untraced, newInputs, rep)
}

// report sets the end-to-end metrics of an untraced window.
func (w *window) report(rep *Report) {
	var jobMS, trialMS []float64
	last := w.first
	for _, j := range w.jobs {
		if !j.terminal() {
			continue
		}
		jobMS = append(jobMS, ms(j.end.Sub(j.sent)))
		for _, t := range j.trialEvents {
			trialMS = append(trialMS, ms(t.Sub(j.sent)))
		}
		if j.end.After(last) {
			last = j.end
		}
	}
	elapsed := last.Sub(w.first).Seconds()
	rep.set("jobs_per_s", float64(len(jobMS))/elapsed)
	rep.set("job_ms_p50", percentile(jobMS, 50))
	rep.set("job_ms_p90", percentile(jobMS, 90))
	rep.set("trials_per_s", float64(len(trialMS))/elapsed)
	rep.set("trial_ms_p50", percentile(trialMS, 50))
	rep.set("trial_ms_p90", percentile(trialMS, 90))
	rep.set("alloc_mb_per_trial", float64(w.allocs)/1e6/float64(max(len(trialMS), 1)))
	rep.set("peak_heap_mb", float64(w.peak)/1e6)
	rep.note("jobs: %d completed in %.2fs by 2 closed-loop clients (%d beyond p90); trials: %d (%d beyond p90)",
		len(jobMS), elapsed, countAbove(jobMS, percentile(jobMS, 90)), len(trialMS), countAbove(trialMS, percentile(trialMS, 90)))
}

// tracedServed is the traced run of served-mixed: the same job sequence
// against a fresh environment whose store and worker HTTP calls are
// timed, then a sample of its executed trials rebuilt layer by layer.
func tracedServed(o Options, untraced *window, newInputs func() []*clientInputs, rep *Report) error {
	tr := NewTracer()
	rep.Trace = tr
	inputs := newInputs()
	env, _, err := startServed(o.WorkDir, tr)
	if err != nil {
		return err
	}
	w, err := drive(env, inputs, o.Window-o.Window/2)
	counters := env.coord.Counters()
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var all []*jobRecord
	for _, win := range []*window{untraced, w} {
		all = append(append(all, win.warmup...), win.jobs...)
	}
	store, err := checkServed(o, all, rep)
	if err != nil {
		return err
	}

	// The trial path, on a sample of the distinct trials the traced
	// window served: the first trial of the first two jobs of each
	// family, run locally and rebuilt layer by layer.
	var sample []experiment.ScenarioSpec
	perFamily := map[int]int{}
	seen := map[string]bool{}
	for _, j := range w.jobs {
		spec := j.req.run.Spec
		k, err := trialKey(spec, spec.Seed)
		if err != nil {
			return err
		}
		if perFamily[j.req.family] >= 2 || seen[k] {
			continue
		}
		seen[k] = true
		perFamily[j.req.family]++
		sample = append(sample, spec)
	}
	results, err := localRun(sample)
	if err != nil {
		return err
	}
	p, err := newPipeline(tr, o.WorkDir)
	if err != nil {
		return err
	}
	for i, spec := range sample {
		k, err := trialKey(spec, spec.Seed)
		if err != nil {
			return err
		}
		if d, err := experiment.DigestResult(results[i]); err != nil || d != store.digests[k] {
			rep.fail("%s: local re-run digests %s, oracle %s (%v)", k, d, store.digests[k], err)
		}
		mismatch, err := p.trial(fmt.Sprintf("served-trial-%d", i), i,
			func() (experiment.Scenario, error) { return spec.Scenario() }, results[i], 0)
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

	var (
		jobMS, submit, queue, run, pre, build  []float64
		rejected, trials                       int
		hits, probes, executed, shared, remote int
	)
	for _, j := range w.jobs {
		if j.errMsg != "" {
			rejected++
			continue
		}
		trace := j.view.ID
		root := tr.Record(trace, 0, "job", j.sent, j.end)
		tr.Record(trace, root, "serve.submit", j.sent, j.submitted)
		started := j.started
		if started.Before(j.submitted) {
			started = j.submitted
		}
		tr.Record(trace, root, "serve.queue", j.submitted, started)
		tr.Record(trace, root, "serve.run", started, j.end)
		jobMS = append(jobMS, ms(j.end.Sub(j.sent)))
		submit = append(submit, ms(j.submitted.Sub(j.sent)))
		queue = append(queue, ms(started.Sub(j.submitted)))
		run = append(run, ms(j.end.Sub(started)))
		trials += j.req.run.Trials
		if st := j.view.Stats; st != nil {
			hits += st.CacheHits
			probes += st.CacheHits + st.CacheMisses
			executed += st.Executed
			shared += st.Deduped
			remote += st.Remote
		}
		// Static analysis and topology build of each distinct job spec,
		// timed here, outside the window.
		sc, err := j.req.run.Spec.Scenario()
		if err != nil {
			return err
		}
		d, err := timeCall(tr, trace, root, "safety.preflight", func() error {
			_, err := experiment.PreflightVerdict(sc)
			return err
		})
		if err != nil {
			return err
		}
		pre = append(pre, ms(d))
		b, err := timeCall(tr, trace, root, "topology.build", func() error {
			_, err := j.req.run.Spec.Topology.Build()
			return err
		})
		if err != nil {
			return err
		}
		build = append(build, ms(b))
	}
	jobs := float64(max(len(jobMS), 1))
	perTrial := float64(max(trials, 1))
	rep.set("topology.build_ms", median(build))
	rep.set("safety.preflight_ms", median(pre))
	rep.set("serve.submit_ms", median(submit))
	rep.set("serve.queue_ms", median(queue))
	rep.set("serve.run_ms", median(run))
	rep.set("serve.rejected", float64(rejected))
	hitRatio := 0.0
	if probes > 0 {
		hitRatio = float64(hits) / float64(probes)
	}
	rep.set("sweep.cache_hit_ratio", hitRatio)
	rep.set("sweep.executed", float64(executed)/perTrial)
	rep.set("sweep.shared", float64(shared)/perTrial)
	rep.set("sweep.remote", float64(remote)/perTrial)

	fsyncs, written := env.fs.snapshot()
	rep.set("durable.fsyncs", float64(len(fsyncs))/perTrial)
	rep.set("durable.fsync_ms", median(durationsMS(fsyncs)))
	rep.set("durable.write_bytes", float64(written)/perTrial)

	rt := env.rt
	rt.mu.Lock()
	leaseMS, reportMS := durationsMS(rt.lease), durationsMS(rt.report)
	rt.mu.Unlock()
	granted := int(counters.LeasesGranted)
	empty := max(len(leaseMS)-granted, 0)
	rep.set("dist.lease_ms", median(leaseMS))
	rep.set("dist.report_ms", median(reportMS))
	rep.set("dist.leases", float64(granted)/jobs)
	rep.set("dist.empty_lease_ratio", float64(empty)/float64(max(granted+empty, 1)))
	rep.set("dist.hedged", float64(counters.LeasesHedged)/jobs)
	rep.set("dist.duplicates_dropped", float64(counters.DuplicateResults)/jobs)

	var untracedMS []float64
	for _, j := range untraced.jobs {
		if j.terminal() {
			untracedMS = append(untracedMS, ms(j.end.Sub(j.sent)))
		}
	}
	overhead := 0.0
	if m := median(untracedMS); m > 0 {
		overhead = median(jobMS) / m
	}
	rep.set("trace.overhead", overhead)
	rep.note("traced jobs: %d (untraced: %d); cache hit ratio %.3f; %d leases, %d empty polls",
		len(jobMS), len(untracedMS), hitRatio, granted, empty)
	return nil
}

// timeCall times fn as a span.
func timeCall(tr *Tracer, trace string, parent int, name string, fn func() error) (time.Duration, error) {
	id := tr.Begin(trace, parent, name, false)
	err := fn()
	return tr.End(id).Dur(), err
}
