// Package engine is the one entry point to grid execution: a single
// Run(ctx, spec, RunOptions) call that plans, executes, and merges an
// experiment grid on one of two backends — the in-process worker pool,
// or a pool of worker subprocesses coordinated by internal/sched —
// selected by an options field. The pool backend runs on the hosts the
// caller gives, or on one built-in local host, so a single-machine
// subprocess run and a multi-host run share one coordinator, one
// directory protocol, and one resume path. The CLI and the serve daemon
// both drive this engine.
//
// Unifying guarantees, regardless of backend:
//
//   - the merged output is byte-identical (timing fields aside) to a
//     serial run of the same spec;
//   - a done ctx stops the run promptly (no new cells, workers killed,
//     in-flight host attempts cancelled) and the returned error wraps
//     ctx.Err(); directory-backed runs stay resumable via ResumeRun;
//   - with a result cache, a fully-cached grid is served entirely by
//     the calling process — computed=0 and no worker subprocess or
//     host is ever touched (Report.ServedFromCache).
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// Backend selects how a grid's cells are executed.
type Backend string

const (
	// BackendAuto resolves from the options: hosts or a directory given
	// → pool, otherwise in-process.
	BackendAuto Backend = ""
	// BackendInproc runs the grid on this process's worker pool.
	BackendInproc Backend = "inproc"
	// BackendPool schedules the grid as worker subprocesses across a
	// pool of hosts — Hosts, or one built-in local host — coordinated
	// through a run directory (resumable, cache-aware planning, failure
	// handling).
	BackendPool Backend = "pool"
)

// RunOptions configures one engine run: the union of the knobs the
// two backends understand. Fields a backend does not use are ignored
// by it (documented per field). The zero value runs in-process with no
// cache.
type RunOptions struct {
	// Backend picks the execution backend; BackendAuto resolves from
	// Hosts/Dir as documented on the constants.
	Backend Backend
	// Dir is the run directory holding the manifest and part files.
	// Required for the pool; unused in-process.
	Dir string
	// Shards is the targeted work-range count of the pool's cache-aware
	// plan. Defaults to the pool's slot count.
	Shards int
	// Procs is the slot count of the built-in local host the pool runs
	// on when Hosts is empty: how many worker subprocesses run at once.
	// Zero falls back to Parallelism.
	Procs int
	// Parallelism sizes the worker pool a single process uses for grid
	// cells: the in-process backend's goroutine pool directly, and the
	// built-in local host's slots when Procs is zero. Zero (or negative)
	// means one worker per CPU. Each pool worker subprocess runs its
	// range on one goroutine per CPU of its host, and the pure-timing
	// fig8 grids always run on one worker.
	Parallelism int
	// Retries is how many extra attempts a failing range gets on each
	// host of the pool: 0 means one attempt per host, so one attempt in
	// all on the built-in local host. Moving a failed range to a host
	// that has not failed it yet is not a retry.
	Retries int
	// CacheDir, when set, is the fingerprint-keyed result store: cells
	// already computed are served from disk on every backend, and a
	// fully-cached grid short-circuits to ServedFromCache.
	CacheDir string
	// RemoteStore, when set, is a shared HTTP cache URL (a `fairbench
	// cachesrv` or a serve daemon's /cache mount) layered behind
	// CacheDir via store.OpenBackend: cells computed by other machines
	// or past CI runs are served instead of recomputed, and cells this
	// run computes are written through for the rest of the fleet.
	// The pool records it in the manifest so workers and resumes
	// inherit it. A remote outage degrades the run to
	// local-only (Report.CacheDegraded) instead of failing it.
	RemoteStore string
	// Hosts is the pool's membership. Empty means one built-in host
	// named "local" with Procs slots. Setting it (with BackendAuto)
	// selects the pool backend.
	Hosts []sched.Host
	// HeartbeatTimeout and MaxHostFailures tune the pool's failure
	// handling.
	HeartbeatTimeout time.Duration
	MaxHostFailures  int
	// Speculate enables the pool's speculative execution: straggling
	// ranges are re-launched on an idle host, first valid part wins.
	Speculate bool
	// Backoff is the pool's retry backoff base delay (exponential with
	// deterministic jitter); zero keeps sched's default, negative
	// disables backoff.
	Backoff time.Duration
	// LocalFallback lets a pool run whose every host is lost complete
	// in-process on the coordinator, marked Report.Degraded.
	LocalFallback bool
	// PoolSource feeds dynamic pool membership (joins/leaves mid-run);
	// see sched.PoolChan and sched.WatchHosts.
	PoolSource sched.PoolSource
	// Transports overlays sched's built-in transport registry.
	Transports map[string]sched.Transport
	// Spawn overrides how the local transport launches worker
	// subprocesses. Nil re-execs this binary's `worker` subcommand.
	Spawn dispatch.SpawnFunc
	// OnEvent observes the pool's scheduling events (heartbeats,
	// completions, failures, exclusions); see sched.Options.OnEvent.
	OnEvent func(sched.Event)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report describes what a run did, normalized across backends; the
// pool's native report rides along for callers that need the details.
type Report struct {
	// Backend is the backend that actually executed the run.
	Backend Backend
	// Fingerprint identifies the grid (cache/merge identity).
	Fingerprint string
	// Arch is the coordinating process's GOARCH — the architecture the
	// result store keys cells on (see store.Key). Cells cached on one
	// architecture are invisible on another, so a mixed-arch fleet
	// recomputes instead of sharing; surfacing the arch in reports and
	// the serve status makes that visible rather than silent.
	Arch string
	// CellsComputed and CellsCached split the grid's cells by who did
	// the work.
	CellsComputed, CellsCached int
	// ServedFromCache reports that the whole grid was materialized from
	// the result store by the calling process: no worker subprocess was
	// spawned and no host was touched.
	ServedFromCache bool
	// Degraded marks a pool run that completed only through the
	// coordinator's local fallback after every host was lost.
	Degraded bool
	// CacheStats is the coordinating process's result-store counters for
	// this run. Rejected > 0 means cache bytes (on disk or from the
	// remote) failed verification and were recomputed instead of served
	// — correct, but worth an operator's attention. Pool workers keep
	// their own counters; for that backend this reflects only the
	// coordinator's own store traffic (plan-time probes, ranges it
	// served, local fallback).
	CacheStats store.Counters
	// CacheDegraded marks that the tiered store's remote side was
	// declared down mid-run: the run completed on local cache and
	// compute alone, byte-identical, without the fleet-wide cache.
	CacheDegraded bool
	// Sched carries the scheduler's native report when the pool ran
	// (nil when the grid was served from cache or ran in-process).
	Sched *sched.Report
}

// Engine executes grids behind one API. The zero value is usable; New
// attaches defaults that every Run/ResumeRun call inherits for fields
// it leaves zero.
type Engine struct {
	defaults RunOptions
}

// New returns an Engine whose per-call options default to defaults:
// any zero field of a Run/ResumeRun call's options is filled from
// here. This is how a daemon pins its state dir, pool, cache, and
// spawn function once while requests carry only per-run knobs.
func New(defaults RunOptions) *Engine { return &Engine{defaults: defaults} }

// merged overlays per-call options on the engine defaults.
func (e *Engine) merged(opts RunOptions) RunOptions {
	d := e.defaults
	if opts.Backend == BackendAuto {
		opts.Backend = d.Backend
	}
	if opts.Dir == "" {
		opts.Dir = d.Dir
	}
	if opts.Shards == 0 {
		opts.Shards = d.Shards
	}
	if opts.Procs == 0 {
		opts.Procs = d.Procs
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = d.Parallelism
	}
	if opts.Retries == 0 {
		opts.Retries = d.Retries
	}
	if opts.CacheDir == "" {
		opts.CacheDir = d.CacheDir
	}
	if opts.RemoteStore == "" {
		opts.RemoteStore = d.RemoteStore
	}
	if opts.Hosts == nil {
		opts.Hosts = d.Hosts
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if opts.MaxHostFailures == 0 {
		opts.MaxHostFailures = d.MaxHostFailures
	}
	if !opts.Speculate {
		opts.Speculate = d.Speculate
	}
	if opts.Backoff == 0 {
		opts.Backoff = d.Backoff
	}
	if !opts.LocalFallback {
		opts.LocalFallback = d.LocalFallback
	}
	if opts.PoolSource == nil {
		opts.PoolSource = d.PoolSource
	}
	if opts.Transports == nil {
		opts.Transports = d.Transports
	}
	if opts.Spawn == nil {
		opts.Spawn = d.Spawn
	}
	if opts.OnEvent == nil {
		opts.OnEvent = d.OnEvent
	}
	if opts.Log == nil {
		opts.Log = d.Log
	}
	return opts
}

// resolve picks the backend BackendAuto stands for.
func resolve(opts RunOptions) Backend {
	switch {
	case opts.Backend != BackendAuto:
		return opts.Backend
	case len(opts.Hosts) > 0 || opts.Dir != "":
		return BackendPool
	default:
		return BackendInproc
	}
}

// Run executes the spec's grid on the resolved backend and merges the
// result. See the package comment for the cross-backend guarantees.
func (e *Engine) Run(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, error) {
	opts = e.merged(opts)
	switch backend := resolve(opts); backend {
	case BackendInproc:
		return runInproc(ctx, spec, opts)
	case BackendPool:
		if opts.Dir == "" {
			return nil, nil, fmt.Errorf("engine: backend %q requires Dir", backend)
		}
		if out, rep, ok, err := serveFromCache(ctx, spec, opts); ok || err != nil {
			return out, rep, err
		}
		out, srep, err := sched.RunContext(ctx, spec, poolOptions(opts))
		return out, fromSched(srep), err
	default:
		return nil, nil, fmt.Errorf("engine: unknown backend %q", backend)
	}
}

// ResumeRun continues the run recorded in dir on the pool. Directories
// whose manifest carries no range plan resume on the uniform split
// their workers used.
func (e *Engine) ResumeRun(ctx context.Context, dir string, opts RunOptions) (*experiments.Output, *Report, error) {
	opts = e.merged(opts)
	opts.Dir = dir
	out, srep, err := sched.ResumeContext(ctx, dir, poolOptions(opts))
	return out, fromSched(srep), err
}

// runInproc executes the whole grid as one in-process "shard" on the
// runner pool — the path serial CLI commands and library callers take.
func runInproc(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, error) {
	s, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, err
	}
	env, err := experiments.RunShard(ctx, spec, 0, 1, s, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	out, err := experiments.MergeShards([]*shard.Envelope{env})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Backend:       BackendInproc,
		Arch:          runtime.GOARCH,
		Fingerprint:   env.Fingerprint,
		CellsComputed: len(env.Indices) - len(env.Cached),
		CellsCached:   len(env.Cached),
	}
	attachCache(rep, s)
	return out, rep, nil
}

// attachCache copies a store handle's counters (and, for tiered stores,
// the remote-outage latch) onto the report — the one place every
// backend's cache observability goes through.
func attachCache(rep *Report, s store.Backend) {
	if rep == nil || s == nil {
		return
	}
	rep.CacheStats = s.Counters()
	if td, ok := s.(*store.TieredStore); ok && td.Degraded() {
		rep.CacheDegraded = true
	}
}

// serveFromCache is the pool's warm-grid short-circuit: when a fresh
// run's grid is fully served by the result store, the coordinator
// materializes it directly — computed=0, no subprocess spawned, no
// host touched, no manifest written. Runs that already have a manifest
// (interrupted, being resumed by Run) fall through so the directory
// protocol stays in charge.
func serveFromCache(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, bool, error) {
	if opts.CacheDir == "" && opts.RemoteStore == "" {
		return nil, nil, false, nil
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, dispatch.ManifestName)); err == nil {
		return nil, nil, false, nil
	}
	s, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, false, err
	}
	plan, err := experiments.PlanShardsCacheAware(spec, 1, s)
	if err != nil {
		return nil, nil, false, err
	}
	if plan.TotalUncached() > 0 {
		return nil, nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, false, fmt.Errorf("engine: cancelled before serving cached grid: %w", err)
	}
	envs := make([]*shard.Envelope, len(plan.Ranges))
	for i := range plan.Ranges {
		// Single-pass plan+serve: planning already read and verified every
		// cached payload, so materialize the envelopes from those bytes.
		// The fallback covers entries that went bad between probe and
		// serve — RunShardPlanned then recomputes them like any cache miss.
		if env, ok := plan.ServeEnvelope(i); ok {
			envs[i] = env
			continue
		}
		if envs[i], err = experiments.RunShardPlanned(spec, plan.Ranges, i, s); err != nil {
			return nil, nil, false, err
		}
	}
	out, err := experiments.MergeShards(envs)
	if err != nil {
		return nil, nil, false, err
	}
	cached := 0
	for _, env := range envs {
		cached += len(env.Cached)
	}
	fp := ""
	if len(envs) > 0 {
		fp = envs[0].Fingerprint
	}
	if opts.Log != nil {
		src := opts.CacheDir
		if src == "" {
			src = opts.RemoteStore
		}
		fmt.Fprintf(opts.Log, "engine: grid fully cached — served %d cell(s) from %s without touching a worker or host\n", cached, src)
	}
	rep := &Report{
		Backend:         BackendPool,
		Arch:            runtime.GOARCH,
		Fingerprint:     fp,
		CellsCached:     cached,
		ServedFromCache: true,
	}
	attachCache(rep, s)
	return out, rep, true, nil
}

// poolOptions maps RunOptions onto the scheduler, building the
// built-in local host when no Hosts are given: Procs slots, else
// Parallelism, else one per CPU.
func poolOptions(opts RunOptions) sched.Options {
	hosts := opts.Hosts
	if len(hosts) == 0 {
		slots := opts.Procs
		if slots <= 0 {
			slots = opts.Parallelism
		}
		if slots <= 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		hosts = []sched.Host{{Name: "local", Slots: slots}}
	}
	transports := opts.Transports
	if opts.Spawn != nil && (transports == nil || transports["local"] == nil) {
		// Route the spawn override through the local transport, the one
		// that spawns subprocesses on this machine.
		merged := map[string]sched.Transport{"local": &sched.LocalExec{Spawn: opts.Spawn}}
		for name, t := range transports {
			merged[name] = t
		}
		transports = merged
	}
	return sched.Options{
		Dir:              opts.Dir,
		Hosts:            hosts,
		Shards:           opts.Shards,
		CacheDir:         opts.CacheDir,
		RemoteStore:      opts.RemoteStore,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Retries:          opts.Retries,
		MaxHostFailures:  opts.MaxHostFailures,
		Speculate:        opts.Speculate,
		Backoff:          opts.Backoff,
		LocalFallback:    opts.LocalFallback,
		PoolSource:       opts.PoolSource,
		Transports:       transports,
		OnEvent:          opts.OnEvent,
		Log:              opts.Log,
	}
}

func fromSched(rep *sched.Report) *Report {
	if rep == nil {
		return nil
	}
	return &Report{
		Backend:       BackendPool,
		Arch:          runtime.GOARCH,
		Fingerprint:   rep.Fingerprint,
		CellsComputed: rep.CellsComputed,
		CellsCached:   rep.CellsCached,
		Degraded:      rep.Degraded,
		CacheStats:    rep.Cache,
		CacheDegraded: rep.CacheDegraded,
		Sched:         rep,
	}
}
