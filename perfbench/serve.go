package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"fairbench"
	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/report"
	"fairbench/internal/serve"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// The serve workload's two request classes. Each class has one shape,
// so its latency distribution has one peak.
const (
	warmGrids    = 5   // cv COMPAS grids prefilled in set-up, resubmitted every round
	warmN        = 600 // 5 folds x 19 approaches = 95 cells each
	coldN        = 300 // fig7 German: 19 cells, never seen before
	requestLimit = 60 * time.Second
)

func warmSpec(seed int64, rep, j int) experiments.Spec {
	return experiments.Spec{Experiment: "cv", Dataset: "compas", N: warmN, K: 5,
		Seed: derive(seed, int64(100+rep*warmGrids+j))}
}

func coldSpec(seed int64, i int) experiments.Spec {
	return experiments.Spec{Experiment: "fig7", Dataset: "german", N: coldN,
		Seed: derive(seed, int64(10000+i))}
}

// front is the one HTTP listener; each round mounts a fresh daemon
// behind it.
type front struct{ h atomic.Pointer[http.Handler] }

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*f.h.Load()).ServeHTTP(w, r) }

// daemon is one serve.Server with its own state directory.
type daemon struct {
	srv   *serve.Server
	state string
}

// startDaemon starts a daemon with the default configuration (dispatch
// subprocess workers, MaxConcurrent 1) over the shared cache, as
// `fairbench serve` does, and mounts it.
func startDaemon(f *front, state, cache string) (*daemon, error) {
	srv, err := serve.New(serve.Config{StateDir: state, CacheDir: cache})
	if err != nil {
		return nil, err
	}
	if _, err := srv.ResumeInterrupted(); err != nil {
		return nil, err
	}
	h := srv.Handler()
	f.h.Store(&h)
	return &daemon{srv: srv, state: state}, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return err
	}
	return os.RemoveAll(d.state)
}

// streamStatus is the part of the daemon's run status the client reads.
type streamStatus struct {
	ID              string `json:"id"`
	Status          string `json:"status"`
	Error           string `json:"error"`
	CellsComputed   int    `json:"cellsComputed"`
	CellsCached     int    `json:"cellsCached"`
	ServedFromCache bool   `json:"servedFromCache"`
	CacheRejected   int64  `json:"cacheRejected"`
}

// request is one closed-loop client request: POST /runs, then /stream
// until done, then GET /table.
type request struct {
	cold           bool
	spec           experiments.Spec
	ref            int // index of the warm grid, or of the cold spec
	round          int
	t0, t1, t2, t3 time.Time
	status         streamStatus
	table          string
	err            error
}

func (r *request) latencyMS() float64 { return float64(r.t3.Sub(r.t0).Nanoseconds()) / 1e6 }

type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(r *request) {
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	r.t0 = time.Now()
	r.err = c.submit(ctx, r)
	r.t1 = time.Now()
	if r.err == nil {
		r.err = c.stream(ctx, r)
	}
	r.t2 = time.Now()
	if r.err == nil {
		r.table, r.err = c.get(ctx, "/runs/"+r.status.ID+"/table")
	}
	r.t3 = time.Now()
}

func (c *client) submit(ctx context.Context, r *request) error {
	body, err := json.Marshal(r.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/runs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /runs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, &r.status)
}

func (c *client) stream(ctx context.Context, r *request) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/runs/"+r.status.ID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var ev struct {
			Type   string        `json:"type"`
			Status *streamStatus `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream event: %w", err)
		}
		switch ev.Type {
		case "done":
			if ev.Status != nil {
				r.status = *ev.Status
			}
			return nil
		case "failed":
			msg := "run failed"
			if ev.Status != nil {
				msg = ev.Status.Error
			}
			return errors.New(msg)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended before done")
}

func (c *client) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(data), nil
}

// serveEnv is the state one serve run sets up.
type serveEnv struct {
	root, cache string
	front       *front
	httpSrv     *http.Server
	cl          *client
	d           *daemon
	daemons     int
	warm        []experiments.Spec
	warmOut     []*experiments.Output
	warmRef     []string // stripped in-process renders of the warm grids
}

// render is the in-process rendering a served table must equal, with
// the wall-clock column stripped.
func render(out *experiments.Output) (string, error) {
	var b strings.Builder
	if err := report.RenderOutput(&b, out); err != nil {
		return "", err
	}
	return stripTiming(b.String()), nil
}

// serveSetup materializes the warm grids' data, prefills the cache with
// them in-process, and starts a daemon, setupReps times on fresh seeds
// and a fresh cache; the last set-up is the one measured.
func serveSetup(seed int64, scratch string) (*serveEnv, float64, error) {
	root, err := filepath.Abs(filepath.Join(scratch, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	e := &serveEnv{root: root, front: &front{}}
	e.httpSrv = &http.Server{Handler: e.front, ReadHeaderTimeout: requestLimit}
	go e.httpSrv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	e.cl = &client{base: "http://" + ln.Addr().String(), hc: &http.Client{}}

	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		e.cache = filepath.Join(root, fmt.Sprintf("cache-%d", rep))
		e.warm, e.warmOut, e.warmRef = nil, nil, nil
		for j := 0; j < warmGrids; j++ {
			spec := warmSpec(seed, rep, j)
			out, _, err := fairbench.Run(context.Background(), spec, fairbench.RunOptions{CacheDir: e.cache})
			if err != nil {
				return e, 0, fmt.Errorf("prefill: %w", err)
			}
			ref, err := render(out)
			if err != nil {
				return e, 0, err
			}
			e.warm, e.warmOut, e.warmRef = append(e.warm, spec), append(e.warmOut, out), append(e.warmRef, ref)
		}
		if err := e.nextDaemon(); err != nil {
			return e, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

// nextDaemon replaces the running daemon with a fresh one over the same
// cache, so resubmitted warm grids are served from the store rather
// than deduplicated onto a finished run.
func (e *serveEnv) nextDaemon() error {
	if e.d != nil {
		if err := e.d.stop(); err != nil {
			return err
		}
	}
	d, err := startDaemon(e.front, filepath.Join(e.root, fmt.Sprintf("state-%d", e.daemons)), e.cache)
	if err != nil {
		return err
	}
	e.d, e.daemons = d, e.daemons+1
	return nil
}

func (e *serveEnv) close() error {
	var errs []error
	if e.d != nil {
		errs = append(errs, e.d.stop())
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	errs = append(errs, e.httpSrv.Shutdown(ctx))
	e.cl.hc.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(e.root))
	return errors.Join(errs...)
}

// serveTrace collects the traced run's per-request measurements.
type serveTrace struct {
	t       *tracer
	logDir  string
	spawns  map[bool][]float64 // by class (cold = true)
	workMS  []float64
	coordMS []float64
	rssMB   float64 // the largest worker peak RSS
	mergeMS []float64
	// latency by class, in traced and untraced rounds.
	traced, untraced map[bool][]float64
	// warm requests' store outcome, from the daemon's final status.
	warmCached, warmCells, warmRejected float64
}

// runServe is the serve workload: a closed loop of one client over a
// seeded interleave of warm and cold requests, round after round. The
// daemons' state, the cache and worker records live under scratch.
func runServe(seed int64, seconds float64, traced bool, scratch string) (res *result, err error) {
	res = newResult(wlServe, traced)
	var st *serveTrace
	if traced {
		st = &serveTrace{t: newTracer(), spawns: map[bool][]float64{},
			traced: map[bool][]float64{}, untraced: map[bool][]float64{}}
		// Workers inherit the environment at spawn; only traced runs
		// ask them to record their own timing.
		st.logDir, err = filepath.Abs(filepath.Join(scratch, fmt.Sprintf("workers-%d", os.Getpid())))
		if err == nil {
			err = os.MkdirAll(st.logDir, 0o755)
		}
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(st.logDir)
		os.Setenv(workerLogEnv, st.logDir)
	}
	e, setupS, err := serveSetup(seed, scratch)
	if e != nil {
		defer func() {
			if cerr := e.close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if err != nil {
		return nil, err
	}

	order := rand.New(rand.NewSource(derive(seed, 7)))
	var reqs []*request
	var cold []experiments.Spec
	sampler := startRSSSampler(10 * time.Millisecond)
	defer sampler.stop()
	u := snapshot()
	phase := time.Now()
	for round := 0; round == 0 || time.Since(phase).Seconds() < seconds; round++ {
		if round > 0 {
			if err := e.nextDaemon(); err != nil {
				return nil, err
			}
		}
		// One round: every warm grid once, in a seeded order, with one
		// never-seen cold grid at a seeded position.
		ops := make([]*request, 0, warmGrids+1)
		for _, j := range order.Perm(warmGrids) {
			ops = append(ops, &request{spec: e.warm[j], ref: j, round: round})
		}
		c := &request{cold: true, spec: coldSpec(seed, len(cold)), ref: len(cold), round: round}
		cold = append(cold, c.spec)
		at := order.Intn(len(ops) + 1)
		ops = append(ops[:at], append([]*request{c}, ops[at:]...)...)
		for _, r := range ops {
			e.cl.do(r)
			reqs = append(reqs, r)
			if st != nil {
				st.observe(r, round%2 == 1, e.d.state)
			}
		}
	}
	phaseUse := since(u)
	if !traced {
		res.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setupReps))
		rss, n := sampler.p90Since(phase)
		res.set("rss_p90_mb", rss, fmt.Sprintf("90th percentile of %d samples, process with the in-process daemon", n))
	}

	// Output check, after the timed phase: every table must equal the
	// in-process render of its spec, timing column stripped.
	coldRef := make([]string, len(cold))
	var coldOut []*experiments.Output // the first replayedColds, for the traced replay
	for i, spec := range cold {
		out, _, err := fairbench.Run(context.Background(), spec, fairbench.RunOptions{})
		if err == nil {
			coldRef[i], err = render(out)
		}
		if err != nil {
			return nil, fmt.Errorf("cold reference %d: %w", i, err)
		}
		if i < replayedColds {
			coldOut = append(coldOut, out)
		}
	}
	lat := map[bool][]float64{}
	roundMS := map[int]float64{}
	failedRound := map[int]bool{}
	cells := 0
	for _, r := range reqs {
		res.attempted++
		want := e.warmRef
		if r.cold {
			want = coldRef
		}
		if r.err == nil && stripTiming(r.table) != want[r.ref] {
			r.err = fmt.Errorf("table differs from the in-process render")
		}
		if r.err != nil {
			res.failed++
			failedRound[r.round] = true
			res.logf("request %d (%s/%s seed %d): %v", res.attempted-1, r.spec.Experiment, r.spec.Dataset, r.spec.Seed, r.err)
			continue
		}
		lat[r.cold] = append(lat[r.cold], r.latencyMS())
		roundMS[r.round] += r.latencyMS()
		cells += r.status.CellsComputed + r.status.CellsCached
	}
	if traced {
		return res, st.report(res, e, cold, coldOut, phaseUse, cells)
	}
	var rounds []float64
	for round, ms := range roundMS {
		if !failedRound[round] {
			rounds = append(rounds, ms)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("every serve round had a failed request")
	}
	res.set("op_ms", median(rounds), fmt.Sprintf("median submit-to-table time of %d rounds of %d warm and 1 cold request", len(rounds), warmGrids))
	res.set("cpu_ms_per_cell", 1000*phaseUse.cpu.Seconds()/float64(max(cells, 1)),
		fmt.Sprintf("user+sys of the process and its workers over the timed phase, %d cells served", cells))
	// Each class's latency, for explaining a change in op_ms.
	for _, class := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		v := lat[class.cold]
		tv, p, w := windowedTail(v)
		res.logf("%s requests: p50 %.3f ms, tail %.3f ms (median of %d windows' p%d), n=%d", class.name, median(v), tv, w, p, len(v))
	}
	return res, nil
}

// observe records one request's client phases as spans (in traced
// rounds) and attributes the worker records it produced.
func (st *serveTrace) observe(r *request, tracedRound bool, state string) {
	if r.err != nil {
		return
	}
	class := "warm"
	if r.cold {
		class = "cold"
	}
	if tracedRound {
		trace := len(st.traced[false]) + len(st.traced[true])
		root := st.t.record("request", trace, -1, r.t0, r.t3, map[string]string{"class": class})
		st.t.record("serve.submit", trace, root, r.t0, r.t1, nil)
		st.t.record("serve.exec", trace, root, r.t1, r.t2, nil)
		st.t.record("serve.table", trace, root, r.t2, r.t3, nil)
		st.traced[r.cold] = append(st.traced[r.cold], r.latencyMS())
	} else {
		st.untraced[r.cold] = append(st.untraced[r.cold], r.latencyMS())
	}

	runDir := filepath.Join(state, r.status.ID)
	var spawns int
	var longest float64
	entries, _ := os.ReadDir(st.logDir) // an unreadable log dir reads as no spawns
	for _, ent := range entries {
		path := filepath.Join(st.logDir, ent.Name())
		data, err := os.ReadFile(path)
		os.Remove(path)
		var w workerRecord
		if err != nil || json.Unmarshal(data, &w) != nil || !strings.HasPrefix(w.Out, runDir+string(filepath.Separator)) {
			continue
		}
		spawns++
		longest = max(longest, w.MS)
		st.workMS = append(st.workMS, w.MS)
		st.rssMB = max(st.rssMB, w.RSSMB)
	}
	st.spawns[r.cold] = append(st.spawns[r.cold], float64(spawns))
	if !r.cold {
		st.warmCached += float64(r.status.CellsCached)
		st.warmCells += float64(r.status.CellsCached + r.status.CellsComputed)
		st.warmRejected += float64(r.status.CacheRejected)
	}
	if r.cold && spawns > 0 {
		st.coordMS = append(st.coordMS, float64(r.t2.Sub(r.t1).Nanoseconds())/1e6-longest)
		if ms, err := mergeParts(runDir); err == nil {
			st.mergeMS = append(st.mergeMS, ms)
		}
	}
}

// mergeParts times experiments.MergeShards over a finished run's parts.
func mergeParts(runDir string) (float64, error) {
	m, err := dispatch.ReadManifest(filepath.Join(runDir, dispatch.ManifestName))
	if err != nil {
		return 0, err
	}
	envs := make([]*shard.Envelope, m.Shards)
	for i := range envs {
		data, err := os.ReadFile(filepath.Join(runDir, dispatch.PartName(i)))
		if err != nil {
			return 0, err
		}
		if envs[i], err = shard.Decode(data); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if _, err := experiments.MergeShards(envs); err != nil {
		return 0, err
	}
	return msSince(start), nil
}

// report fills the traced run's per-layer metrics: the client phases,
// worker records, and direct calls into each layer on the same specs.
func (st *serveTrace) report(res *result, e *serveEnv, cold []experiments.Spec, coldOut []*experiments.Output, phase delta, cells int) error {
	var submit, execWarm, execCold, table []float64
	for _, s := range st.t.spans {
		if s.Parent < 0 {
			continue
		}
		ms := float64((s.End - s.Start).Nanoseconds()) / 1e6
		switch s.Name {
		case "serve.submit":
			submit = append(submit, ms)
		case "serve.table":
			table = append(table, ms)
		case "serve.exec":
			if st.t.spans[s.Parent].Attrs["class"] == "cold" {
				execCold = append(execCold, ms)
			} else {
				execWarm = append(execWarm, ms)
			}
		}
	}
	res.set("serve.submit_ms", median(submit), fmt.Sprintf("n=%d", len(submit)))
	res.set("serve.exec_ms.warm", median(execWarm), fmt.Sprintf("n=%d", len(execWarm)))
	res.set("serve.exec_ms.cold", median(execCold), fmt.Sprintf("n=%d", len(execCold)))
	res.set("serve.table_ms", median(table), fmt.Sprintf("n=%d", len(table)))
	res.set("dispatch.spawns_per_cold", mean(st.spawns[true]), fmt.Sprintf("n=%d", len(st.spawns[true])))
	res.set("dispatch.spawns_per_warm", mean(st.spawns[false]), fmt.Sprintf("n=%d", len(st.spawns[false])))
	res.set("dispatch.worker_ms", median(st.workMS), fmt.Sprintf("timed inside the worker, n=%d", len(st.workMS)))
	res.set("dispatch.coord_ms", median(st.coordMS), "cold exec phase minus its longest worker")
	res.set("dispatch.worker_rss_mb", st.rssMB, "largest worker peak RSS")
	res.set("shard.merge_ms", median(st.mergeMS), fmt.Sprintf("n=%d cold runs' parts", len(st.mergeMS)))
	res.set("gc.cpu_frac", phase.gcFrac, "GC CPU over busy CPU in the daemon process, timed phase")
	res.set("alloc_mb_per_cell", phase.allocsMB/float64(max(cells, 1)),
		fmt.Sprintf("daemon process heap allocation per served cell, %d cells", cells))
	wt, wu := median(st.traced[false]), median(st.untraced[false])
	res.set("trace.overhead_frac", (wt-wu)/wu, fmt.Sprintf("warm p50 in traced rounds %.3fms vs untraced %.3fms", wt, wu))

	// Direct calls into each layer on the workload's own specs.
	res.set("synth.materialize_ms", materializeMS(cold[0]), "fresh German n=300 generations")
	res.set("experiments.open_ms", openMS(cold[0], 10), "median of 10 opens of never-seen cold-shaped specs")
	getUS, putUS, rejected, err := storeProbe(e)
	if err != nil {
		return err
	}
	res.set("store.get_us", getUS, "DiskStore.Get on the warm keys")
	res.set("store.put_us", putUS, "DiskStore.Put of the warm payloads into a scratch store")
	res.set("store.hit_ratio", st.warmCached/max(st.warmCells, 1), fmt.Sprintf("cached cells over cells of %d warm requests", len(st.spawns[false])))
	res.set("store.rejected", st.warmRejected+rejected, "verification rejects on warm requests and the direct Gets")
	ms, err := engineProbe(e)
	if err != nil {
		return err
	}
	res.set("engine.cache_serve_ms", ms, "engine Run of a warm grid, served from cache without a daemon")
	ms, err = renderProbe(e)
	if err != nil {
		return err
	}
	res.set("report.render_ms", ms, "RenderOutput of the warm grids")
	if err := st.replayColds(res, cold, coldOut); err != nil {
		return err
	}
	res.tracer = st.t
	return nil
}

// replayedColds is how many of a run's cold grids the traced run replays
// serially, to split the computation the workers do into layers.
const replayedColds = 3

// replayColds replays the first cold grids through public functions, as
// the grid workloads' traced runs do, and checks each against the grid
// Run computed for the output check.
func (st *serveTrace) replayColds(res *result, cold []experiments.Spec, coldOut []*experiments.Output) error {
	layers := map[string][]float64{}
	for i, out := range coldOut {
		plan, err := planReplay(cold[i])
		if err != nil {
			return err
		}
		from := len(st.t.spans)
		rout, err := plan.run(st.t)
		if err != nil {
			return fmt.Errorf("traced replay of cold grid %d: %w", i, err)
		}
		totals, _ := layerTotals(st.t, from)
		for name, v := range totals {
			layers[name] = append(layers[name], v)
		}
		res.attempted += plan.grid.Len()
		if f, err := gridCheck(rout, mustDigests(out), plan.grid.Len()); err != nil || f > 0 {
			res.failed += f
			res.logf("traced replay of cold grid %d differs from Run on %d cell(s) %v", i, f, err)
		}
	}
	res.setLayers(layers, "cold-grid replays")
	return nil
}

// storeProbe times the store's Get on every warm key and Put of the same
// payloads into a scratch store, in microseconds per call.
func storeProbe(e *serveEnv) (getUS, putUS, rejected float64, err error) {
	s, err := store.Open(e.cache)
	if err != nil {
		return 0, 0, 0, err
	}
	scratch, err := store.Open(filepath.Join(e.root, "put-probe"))
	if err != nil {
		return 0, 0, 0, err
	}
	var gets, puts []float64
	for _, spec := range e.warm {
		g, err := experiments.Open(spec)
		if err != nil {
			return 0, 0, 0, err
		}
		fp, err := g.Fingerprint()
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < g.Len(); i++ {
			k := store.Key{Fingerprint: fp, Index: i, Seed: g.Spec().Seed, Arch: runtime.GOARCH}
			start := time.Now()
			payload, ok := s.Get(k)
			gets = append(gets, msSince(start)*1000)
			if !ok {
				return 0, 0, 0, fmt.Errorf("store probe: warm cell %d of %s missing", i, fp[:12])
			}
			start = time.Now()
			if err := scratch.Put(k, payload); err != nil {
				return 0, 0, 0, err
			}
			puts = append(puts, msSince(start)*1000)
		}
	}
	return median(gets), median(puts), float64(s.Counters().Rejected), nil
}

// engineProbe times the engine's fully-cached path on the warm grids:
// a dispatch-backend Run that must be served from the store by the
// calling process, with no daemon and no worker.
func engineProbe(e *serveEnv) (float64, error) {
	eng := fairbench.NewEngine(fairbench.RunOptions{CacheDir: e.cache, Backend: fairbench.BackendDispatch})
	var ms []float64
	for rep := 0; rep < 3; rep++ {
		for j, spec := range e.warm {
			dir := filepath.Join(e.root, fmt.Sprintf("engine-%d-%d", rep, j))
			start := time.Now()
			_, rep, err := eng.Run(context.Background(), spec, fairbench.RunOptions{Dir: dir})
			if err != nil {
				return 0, err
			}
			ms = append(ms, msSince(start))
			if !rep.ServedFromCache {
				return 0, fmt.Errorf("engine probe: warm grid %d was not served from cache", j)
			}
		}
	}
	return median(ms), nil
}

// renderProbe times report.RenderOutput on the warm grids' outputs.
func renderProbe(e *serveEnv) (float64, error) {
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		for _, out := range e.warmOut {
			var b strings.Builder
			start := time.Now()
			if err := report.RenderOutput(&b, out); err != nil {
				return 0, err
			}
			ms = append(ms, msSince(start))
		}
	}
	return median(ms), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
