// Command fairbench regenerates the paper's evaluation artifacts from the
// command line:
//
//	fairbench list                        enumerate approaches and stages
//	fairbench eval   -dataset compas -approach KamCal-DP
//	fairbench fig7   [-dataset adult|compas|german|all] [-n N]
//	fairbench fig8   [-n N]               efficiency & scalability sweeps
//	fairbench fig9   [-n N]               robustness to data errors (T1-T3)
//	fairbench fig10  [-n N]               model sensitivity (pre/post x 5)
//	fairbench cv     [-dataset ...] [-k 5]  cross-validation tables
//	fairbench fig22  [-runs 10] [-n N]    stability
//	fairbench fig23  [-n N]               data efficiency
//	fairbench merge  part0.json part1.json ...   combine shard envelopes
//	fairbench dispatch -exp fig7 ... -dir DIR    run a grid as subprocesses
//	fairbench resume   -dir DIR                  finish an interrupted dispatch/sched run
//	fairbench sched  -exp fig7 ... -dir DIR -hosts hosts.json   multi-host run
//	fairbench serve  -state DIR [-addr HOST:PORT]    benchmark-as-a-service daemon
//	fairbench worker   -manifest M -shard I -out O   (spawned by dispatch/sched)
//
// Every figure command builds the GridSpec its flags describe, runs it on
// the in-process engine (fairbench.Run), and prints it with the renderer
// merge, dispatch, sched and the serve daemon use, so all of them print
// the same tables for the same spec, title lines included. fig9 also
// runs the clean fig7 grid on the same data to print its Δ tables.
//
// -n caps the generated dataset size (0 = the paper's full size); smaller
// values keep exploratory runs fast. -parallel N sets the experiment
// worker-pool size (0 = GOMAXPROCS, 1 = serial): metric columns are
// identical at any setting for a fixed seed, while the incidental
// overhead column of the metric experiments reflects the selected
// concurrency. The pure timing experiment (fig8) always measures with
// one worker so its overhead curves stay contention-free.
//
// -cache DIR (any figure command, -shard run, dispatch, sched, or serve)
// names the run's on-disk result cache: cells already computed for the
// same grid fingerprint, seed, and architecture are served from disk, so
// re-runs only compute what is missing while printing byte-identical
// metric columns.
//
// -bias MODEL -bias-rate R [-bias-rate-neg R] (any figure command,
// dispatch, or sched) inject parameterized data bias into the training
// distribution before the grid runs: `-bias under` drops unprivileged
// tuples stratified by label (β⁺ = -bias-rate, β⁻ = -bias-rate-neg),
// `-bias label` flips unprivileged labels at rate ν = -bias-rate.
// Injection is seeded and deterministic, and the bias setting is part of
// the grid fingerprint, so shards, caches, and merges never mix bias
// settings. See the README's "Scenario axis" section.
//
// -cpuprofile FILE / -memprofile FILE (any command) record a pprof
// CPU or allocation profile of the run, so performance work on the
// figure commands starts from a measured profile rather than a guess:
//
//	fairbench fig7 -dataset german -n 300 -cpuprofile cpu.prof
//	go tool pprof cpu.prof
//
// # Sharded execution
//
// Any figure command can run as one shard of its job grid and emit a
// JSON partial-result envelope instead of tables:
//
//	fairbench fig7 -dataset compas -shard 0/3 -out part0.json
//	fairbench fig7 -dataset compas -shard 1/3 -out part1.json   # any host
//	fairbench fig7 -dataset compas -shard 2/3 -out part2.json   # any host
//	fairbench merge part0.json part1.json part2.json
//
// The merged tables are bit-identical (timing columns aside, titles
// included) to the single-process run with the same flags, because the
// datasets are synthesized from the seed: the (experiment, dataset, n,
// seed, …) spec embedded in each envelope fully determines every grid
// cell. merge
// rejects envelopes whose grid fingerprints disagree — naming the
// offending file — and an incomplete set fails listing the shard
// indices still missing. Commands that span several datasets (-dataset
// all) or grids shard one grid at a time: pick a single dataset, and
// for fig8 pick -grid rows or -grid attrs.
//
// # Dispatch and resume
//
// dispatch drives the whole shard→merge flow itself: it plans the grid
// into about -shards ranges, runs up to -procs worker subprocesses at
// once (each a `fairbench worker` re-exec of this binary), gives each
// failing range -retries extra attempts, collects the envelopes under
// -dir, and prints the merged tables. It is sched on one built-in local
// host: the same flags, the same scheduler. The directory plus the
// -cache store make the run resumable: if dispatch is interrupted — or
// a worker is SIGKILLed with no retries left — the completed envelopes
// and cached cells survive, and
//
//	fairbench dispatch -exp fig7 -dataset german -shards 8 -procs 4 \
//	    -dir run -cache cache
//	# ... interrupted ...
//	fairbench resume -dir run -procs 4
//
// finishes only the missing work and prints tables byte-identical
// (timing aside) to an uninterrupted serial run.
//
// # Multi-host scheduling
//
// sched with -hosts runs the grid on a pool of hosts described by a
// hosts.json file (a JSON array of {name, slots, transport, cmd}
// objects; see the README's "Multi-host execution" section). Local
// hosts re-exec this binary's worker subcommand; remote hosts run a
// worker binary through an arbitrary command prefix (typically ssh)
// with the manifest streamed over stdin and the envelope back over
// stdout — which is what `worker -manifest - -shard I -out -`
// implements, so no shared filesystem is needed. Planning is cache-aware: with -cache,
// ranges already fully computed are served by the coordinator and the
// rest are balanced across hosts by uncached cell count. Failed
// attempts move to other hosts, hosts silent past -heartbeat are
// declared dead, and repeatedly failing hosts are excluded:
//
//	fairbench sched -exp fig7 -dataset german -shards 8 \
//	    -hosts hosts.json -dir run -cache cache
//
// prints tables byte-identical (timing aside) to the serial run, or
// fails naming the missing ranges with the directory resumable by
// `sched` (same flags) or `resume -dir run`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fairbench"
	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/fair"
	"fairbench/internal/registry"
	"fairbench/internal/report"
	"fairbench/internal/sched"
	"fairbench/internal/serve"
	"fairbench/internal/store"
)

// shardableCommands maps figure commands to their grid experiment names
// (fig8 resolves through -grid since it spans two grids).
var shardableCommands = map[string]string{
	"fig7": "fig7", "fig9": "fig9", "fig10": "fig10", "fig15": "fig15",
	"cv": "cv", "fig22": "fig22", "fig23": "fig23",
}

// allFigures is what `fairbench all` prints, in order.
var allFigures = []string{"fig7", "fig8", "fig9", "fig10", "cv", "fig22", "fig23"}

// flags holds every parsed command-line flag; each command reads the
// ones it uses.
type flags struct {
	dataset, approach      string
	n, k, runs             int
	seed                   int64
	parallel               int
	shard, out, grid       string
	cache, remoteStore     string
	bias                   biasSpec
	exp, dir               string
	shards, procs, retries int
	manifest, hosts        string
	heartbeat              time.Duration
	maxHostFailures        int
	speculate              bool
	backoff, watchHosts    time.Duration
	localFallback          bool
	addr, state            string
	maxRuns                int
	cpuProfile, memProfile string
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var f flags
	fs.StringVar(&f.dataset, "dataset", "all", "adult|compas|german|all")
	fs.StringVar(&f.approach, "approach", "", "approach name for eval (see list)")
	fs.IntVar(&f.n, "n", 0, "dataset size cap (0 = paper size)")
	fs.IntVar(&f.k, "k", 5, "cross-validation folds")
	fs.IntVar(&f.runs, "runs", 10, "stability runs")
	fs.Int64Var(&f.seed, "seed", 1, "global seed")
	fs.IntVar(&f.parallel, "parallel", 0, "experiment worker goroutines (0 = GOMAXPROCS; 1 = serial, for contention-free timing)")
	fs.StringVar(&f.shard, "shard", "", "run one shard i/K (0-based) of the command's job grid and emit a JSON envelope instead of tables")
	fs.StringVar(&f.out, "out", "", "file for the -shard envelope or the merged-output JSON (default: envelope to stdout; merge prints tables only)")
	fs.StringVar(&f.grid, "grid", "rows", "which fig8 grid to shard: rows|attrs")
	fs.StringVar(&f.cache, "cache", "", "result-cache directory: serve already-computed cells from disk, write fresh ones back")
	fs.StringVar(&f.remoteStore, "remote-store", "", "shared result-store base URL (a fairbench cachesrv or serve daemon's /cache): read-through behind -cache, every entry verified before use")
	fs.StringVar(&f.bias.model, "bias", "", "bias-injection model applied to the training data: under|label (default: clean data)")
	fs.Float64Var(&f.bias.rate, "bias-rate", 0, "bias rate: under-representation's positive-label drop rate β⁺, or label bias's flip rate ν")
	fs.Float64Var(&f.bias.rateNeg, "bias-rate-neg", 0, "under-representation's negative-label drop rate β⁻")
	fs.StringVar(&f.exp, "exp", "", "dispatch/sched: grid experiment name (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	fs.StringVar(&f.dir, "dir", "", "dispatch/sched/resume: run directory holding the manifest and part files")
	fs.IntVar(&f.shards, "shards", 0, "dispatch/sched/serve: targeted number of work ranges (default: the pool's total slots)")
	fs.IntVar(&f.procs, "procs", 0, "dispatch/sched/resume/serve: slots of the built-in local host used without -hosts, i.e. worker subprocesses at once (default: -parallel, else GOMAXPROCS)")
	fs.IntVar(&f.retries, "retries", 1, "dispatch/sched/resume/serve: extra attempts a failing range gets on each host (0 = one attempt per host)")
	fs.StringVar(&f.manifest, "manifest", "", "worker: manifest file of the run directory (- reads it from stdin)")
	fs.StringVar(&f.hosts, "hosts", "", "sched: hosts.json pool definition (default: one local host with -procs slots)")
	fs.DurationVar(&f.heartbeat, "heartbeat", 60*time.Second, "sched: declare a host dead after this long without a transport heartbeat")
	fs.IntVar(&f.maxHostFailures, "max-host-failures", 3, "sched: exclude a host after this many failed attempts")
	fs.BoolVar(&f.speculate, "speculate", false, "sched: re-launch straggling ranges on idle hosts; first valid part wins")
	fs.DurationVar(&f.backoff, "backoff", 0, "sched: base delay before retrying a failed range, doubling per attempt with jitter (0 = 100ms default, negative = retry immediately)")
	fs.DurationVar(&f.watchHosts, "watch-hosts", 0, "sched: re-read -hosts at this interval; added hosts join mid-run, removed hosts drain (0 = off)")
	fs.BoolVar(&f.localFallback, "local-fallback", true, "sched: when every host is lost, finish the remaining ranges in-process (report marks the run degraded)")
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "serve: HTTP listen address")
	fs.StringVar(&f.state, "state", "", "serve: state directory (one resumable run directory per grid)")
	fs.IntVar(&f.maxRuns, "max-runs", 1, "serve: concurrently executing runs before submissions get 429")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of this command to the file (inspect with go tool pprof)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile of this command to the file (inspect with go tool pprof)")
	fs.Parse(os.Args[2:])
	exitIf(startProfiles(f.cpuProfile, f.memProfile))
	if f.bias.set() {
		switch cmd {
		case "list", "eval", "merge", "resume", "all":
			exit(fmt.Errorf("-bias/-bias-rate/-bias-rate-neg apply to figure, dispatch, and sched commands, not %q", cmd))
		}
	}

	switch cmd {
	case "worker":
		// dispatch spawns `worker -shard I`: here -shard is the bare shard
		// index, not the figure commands' i/K form.
		idx, err := strconv.Atoi(f.shard)
		if err != nil {
			exit(fmt.Errorf("worker needs -shard <index>, got %q", f.shard))
		}
		exit(cmdWorker(f.manifest, idx, f.out))
	case "sched", "dispatch":
		exit(cmdSched(cmd, &f))
	case "serve":
		exit(cmdServe(&f))
	case "cachesrv":
		exit(cmdCacheSrv(f.addr, f.dir))
	case "fingerprint":
		exit(cmdFingerprint(&f))
	case "list":
		exit(cmdList())
	case "eval":
		exit(cmdEval(f.dataset, f.approach, f.n, f.seed))
	case "merge":
		exit(cmdMerge(fs.Args(), f.out))
	case "resume":
		exit(cmdResume(&f))
	case "all":
		f.dataset = "all"
		exit(cmdFigures(allFigures, &f))
	}
	if _, ok := shardableCommands[cmd]; !ok && cmd != "fig8" {
		stopProfiles() // flush any -cpuprofile/-memprofile started above
		usage()
		os.Exit(2)
	}
	if f.shard != "" {
		spec, err := specFor(cmd, f.dataset, f.grid, &f)
		if err == nil {
			err = cmdShard(spec, &f)
		}
		exit(err)
	}
	exit(cmdFigures([]string{cmd}, &f))
}

func exit(err error) {
	exitIf(err)
	stopProfiles()
	os.Exit(0)
}

// exitIf reports err and exits non-zero, or returns having done nothing.
// Profiles are flushed even on the error path so a crashing run still
// leaves its evidence behind.
func exitIf(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
}

// stopProfiles flushes any active profiles; exit paths call it explicitly
// because os.Exit skips deferred functions. Reassigned by startProfiles.
var stopProfiles = func() {}

// startProfiles enables the -cpuprofile/-memprofile outputs. Future perf
// work on the figure commands starts from one of these profiles, not
// from a guess:
//
//	fairbench fig7 -dataset german -n 300 -cpuprofile cpu.prof
//	go tool pprof cpu.prof
func startProfiles(cpuPath, memPath string) error {
	if cpuPath == "" && memPath == "" {
		return nil
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopProfiles = func() {
		stopProfiles = func() {} // idempotent: exit paths may overlap
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -cpuprofile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "fairbench: wrote CPU profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -memprofile:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -memprofile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "fairbench: wrote allocation profile to %s\n", memPath)
			}
			f.Close()
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fairbench <list|eval|fig7|fig8|fig9|fig10|fig15|cv|fig22|fig23|merge|all> [flags]
       fairbench <figN|cv> ... [-bias under|label -bias-rate R [-bias-rate-neg R]]
                 inject parameterized data bias (grid commands only)
       fairbench <figN|cv> ... -shard i/K [-out part.json] [-cache DIR]  run one grid shard
       fairbench merge part0.json part1.json ...                         combine shards
       fairbench dispatch -exp <figN|cv|fig8rows|fig8attrs> [figure flags]
                 -dir DIR [-shards K] [-procs N] [-retries R]
                 [-cache DIR] [-remote-store URL]           worker subprocesses on this machine
                 (sched without -hosts: every sched flag applies)
       fairbench resume -dir DIR [-procs N] [-retries R]                 finish an interrupted run
       fairbench sched -exp <figN|cv|fig8rows|fig8attrs> [figure flags] -dir DIR
                 [-hosts hosts.json] [-shards K] [-procs N] [-cache DIR] [-remote-store URL]
                 [-retries R] [-heartbeat 60s] [-max-host-failures 3] [-speculate]
                 [-backoff 100ms] [-watch-hosts 5s] [-local-fallback]    multi-host run
       fairbench serve -state DIR [-addr 127.0.0.1:8080] [-cache DIR]
                 [-remote-store URL] [-hosts hosts.json] [-shards K] [-procs N]
                 [-retries R] [-max-runs 1] [-speculate] [-backoff 100ms]
                 benchmark-as-a-service daemon (also serves /cache)
       fairbench cachesrv -dir DIR [-addr 127.0.0.1:8080]                standalone shared result store
       fairbench fingerprint -exp <figN|cv|fig8rows|fig8attrs> [figure flags]
                 print the grid's store/cache fingerprint (CI cache key)`)
}

// biasSpec collects the bias-injection flags shared by every grid
// command; zero value = clean data.
type biasSpec struct {
	model         string
	rate, rateNeg float64
}

// set marks whether any bias flag was given (spec validation then
// decides whether the combination is coherent).
func (b biasSpec) set() bool { return b.model != "" || b.rate != 0 || b.rateNeg != 0 }

// apply copies the flags onto a grid spec.
func (b biasSpec) apply(spec fairbench.GridSpec) fairbench.GridSpec {
	spec.Bias = b.model
	spec.BiasRate = b.rate
	spec.BiasRateNeg = b.rateNeg
	return spec
}

// gridSpecFor assembles the grid spec the pool commands (dispatch,
// sched) and fingerprint describe with their flags.
func gridSpecFor(f *flags) fairbench.GridSpec {
	spec := fairbench.GridSpec{Experiment: f.exp, N: f.n, Seed: f.seed}
	if f.dataset != "" && !strings.EqualFold(f.dataset, "all") {
		spec.Dataset = f.dataset
	}
	switch strings.ToLower(f.exp) {
	case "cv":
		spec.K = f.k
	case "fig22":
		spec.Runs = f.runs
	}
	return f.bias.apply(spec)
}

// signalContext is the run context of the long-running commands:
// SIGINT/SIGTERM cancel it, which stops the engine promptly and leaves
// directory-backed runs resumable.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdResume(f *flags) error {
	if f.dir == "" {
		return fmt.Errorf("resume requires -dir (the run directory to finish)")
	}
	ctx, stop := signalContext()
	defer stop()
	merged, rep, err := fairbench.ResumeRun(ctx, f.dir, fairbench.RunOptions{
		Procs: f.procs, Retries: f.retries, Parallelism: f.parallel, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	return renderRun(merged, rep, f.out)
}

// cmdSched runs a grid on the subprocess pool — across -hosts, or on
// the built-in local host with -procs slots — and prints the merged
// tables: the serial figure command's output, fault-tolerantly. It is
// the body of both `sched` and `dispatch`.
func cmdSched(cmd string, f *flags) error {
	if f.exp == "" {
		return fmt.Errorf("%s requires -exp (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)", cmd)
	}
	if f.dir == "" {
		return fmt.Errorf("%s requires -dir (the resumable run directory)", cmd)
	}
	hosts, err := loadHosts(f.hosts)
	if err != nil {
		return err
	}
	var pool fairbench.PoolSource
	if f.watchHosts > 0 {
		if f.hosts == "" {
			return fmt.Errorf("-watch-hosts requires -hosts (the file to re-read)")
		}
		w, err := sched.WatchHosts(f.hosts, f.watchHosts)
		if err != nil {
			return err
		}
		defer w.Close()
		pool = w
	}
	ctx, stop := signalContext()
	defer stop()
	merged, rep, err := fairbench.Run(ctx, gridSpecFor(f), fairbench.RunOptions{
		Backend: fairbench.BackendPool,
		Dir:     f.dir, Hosts: hosts, Shards: f.shards, Procs: f.procs, CacheDir: f.cache, RemoteStore: f.remoteStore,
		HeartbeatTimeout: f.heartbeat, Retries: f.retries, MaxHostFailures: f.maxHostFailures,
		Speculate: f.speculate, Backoff: f.backoff, LocalFallback: f.localFallback, PoolSource: pool,
		Parallelism: f.parallel, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	return renderRun(merged, rep, f.out)
}

// loadHosts reads the -hosts pool definition; no file means the
// built-in local host.
func loadHosts(path string) ([]fairbench.SchedHost, error) {
	if path == "" {
		return nil, nil
	}
	return fairbench.LoadHosts(path)
}

// Timeouts of the daemons' HTTP servers. A client gets this long to send
// its request headers, and an idle keep-alive connection is closed after
// the idle timeout, so stalled or abandoned connections cannot pile up.
// Bodies and responses are not bounded here: /runs streams rows for as
// long as a run lasts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveHTTP serves h on ln until ctx is done, then shuts the server
// down within grace. A listener failure is returned as is.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration, drain func(context.Context) error) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	var err error
	if drain != nil {
		err = drain(dctx)
	}
	if serr := srv.Shutdown(dctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// cmdServe runs the benchmark-as-a-service daemon: grids submitted
// over HTTP execute on the same engine the dispatch/sched commands
// use, deduplicated by grid fingerprint and checkpointed under -state.
// SIGTERM/SIGINT drain gracefully; interrupted runs resume on restart.
func cmdServe(f *flags) error {
	if f.state == "" {
		return fmt.Errorf("serve requires -state (the daemon's run-state directory)")
	}
	hosts, err := loadHosts(f.hosts)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		StateDir: f.state, CacheDir: f.cache, RemoteStore: f.remoteStore, MaxConcurrent: f.maxRuns,
		Shards: f.shards, Procs: f.procs, Retries: f.retries, Parallelism: f.parallel,
		Hosts: hosts, HeartbeatTimeout: f.heartbeat, MaxHostFailures: f.maxHostFailures,
		Speculate: f.speculate, Backoff: f.backoff, LocalFallback: f.localFallback,
		Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	if resumed, err := srv.ResumeInterrupted(); err != nil {
		return err
	} else if resumed > 0 {
		fmt.Fprintf(os.Stderr, "fairbench: serve: resumed %d interrupted run(s)\n", resumed)
	}

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	fmt.Fprintf(os.Stderr, "fairbench: serving on http://%s (state %s)\n", ln.Addr(), f.state)
	err = serveHTTP(ctx, ln, srv.Handler(), 30*time.Second, func(dctx context.Context) error {
		fmt.Fprintln(os.Stderr, "fairbench: serve: draining — in-flight runs checkpoint and resume on the next start")
		return srv.Drain(dctx)
	})
	if err == nil {
		fmt.Fprintln(os.Stderr, "fairbench: serve: drained cleanly")
	}
	return err
}

// cmdCacheSrv runs the standalone shared result store: an on-disk
// store exposed over the content-addressed /cache HTTP protocol the
// -remote-store clients speak. Every PUT body is verified before it
// is stored; every GET re-encodes an already-verified entry.
func cmdCacheSrv(addr, dir string) error {
	if dir == "" {
		return fmt.Errorf("cachesrv requires -dir (the on-disk store directory it serves)")
	}
	ds, err := store.Open(dir)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/cache/", http.StripPrefix("/cache", store.Handler(ds)))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	fmt.Fprintf(os.Stderr, "fairbench: cachesrv: serving %s on http://%s/cache\n", dir, ln.Addr())
	if err := serveHTTP(ctx, ln, mux, 10*time.Second, nil); err != nil {
		return err
	}
	c := ds.Counters()
	fmt.Fprintf(os.Stderr, "fairbench: cachesrv: stopped — hits=%d misses=%d writes=%d rejected=%d\n",
		c.Hits, c.Misses, c.Writes, c.Rejected)
	return nil
}

// cmdFingerprint prints the fingerprint of the grid the flags
// describe — the address prefix the result store keys its cells
// under. CI keys its cross-run cache (actions/cache) on this value so
// a grid change invalidates the cache exactly when the keys change.
func cmdFingerprint(f *flags) error {
	if f.exp == "" {
		return fmt.Errorf("fingerprint requires -exp (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	}
	fp, err := fairbench.GridFingerprint(gridSpecFor(f))
	if err != nil {
		return err
	}
	fmt.Println(fp)
	return nil
}

// renderRun prints the merged tables, the backend's provenance summary
// line (the e2e jobs assert on computed=0 and "fully cached" for warm
// runs), and the optional JSON dump.
func renderRun(merged *fairbench.GridOutput, rep *fairbench.RunReport, out string) error {
	if err := report.RenderOutput(os.Stdout, merged); err != nil {
		return err
	}
	switch {
	case rep.ServedFromCache:
		fmt.Fprintf(os.Stderr, "fairbench: run complete: grid fully cached — served from the result store, cells computed=0 cached=%d\n",
			rep.CellsCached)
	case rep.Sched != nil:
		s := rep.Sched
		fmt.Fprintf(os.Stderr, "fairbench: run complete: %d range(s) (%d reused, %d served from cache), %d host(s) excluded, cells computed=%d cached=%d\n",
			len(s.Ranges), len(s.Reused), len(s.Skipped), len(s.Excluded), s.CellsComputed, s.CellsCached)
		if len(s.Speculated) > 0 {
			fmt.Fprintf(os.Stderr, "fairbench: sched: %d speculative attempt(s) launched against stragglers\n", len(s.Speculated))
		}
		if len(s.Joined) > 0 || len(s.Departed) > 0 {
			fmt.Fprintf(os.Stderr, "fairbench: sched: pool changed mid-run: %d joined, %d departed\n", len(s.Joined), len(s.Departed))
		}
		if s.Degraded {
			fmt.Fprintf(os.Stderr, "fairbench: sched: DEGRADED — every host was lost; %d range(s) finished by the local in-process fallback\n", len(s.Fallback))
		}
	}
	if rep.CacheStats.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "fairbench: WARNING: result store rejected %d corrupt or mismatched entrie(s); each was recomputed from scratch\n",
			rep.CacheStats.Rejected)
	}
	if rep.CacheDegraded {
		fmt.Fprintln(os.Stderr, "fairbench: remote store DEGRADED — repeated transport failures; the run finished on the local cache tier alone")
	}
	return writeOutput(merged, out)
}

// cmdWorker is the dispatch/sched-spawned subprocess body. With
// `-manifest - -shard I -out -` it speaks the remote-transport protocol instead:
// manifest over stdin, envelope over stdout, no filesystem shared with
// the scheduler.
func cmdWorker(manifest string, shard int, out string) error {
	if manifest == "-" || out == "-" {
		if manifest != "-" || out != "-" {
			return fmt.Errorf("worker streams manifest and envelope together: use -manifest - with -out -")
		}
		if shard < 0 {
			return fmt.Errorf("worker requires -shard")
		}
		return dispatch.WorkerIO(os.Stdin, shard, os.Stdout)
	}
	if manifest == "" || out == "" || shard < 0 {
		return fmt.Errorf("worker requires -manifest, -shard, and -out (it is normally spawned by dispatch or sched)")
	}
	return dispatch.Worker(manifest, shard, out)
}

// specFor builds the grid spec one grid of a figure command describes
// (fig8 spans two; grid picks rows or attrs).
func specFor(cmd, ds, grid string, f *flags) (fairbench.GridSpec, error) {
	experiment, ok := shardableCommands[cmd]
	if cmd == "fig8" {
		switch grid {
		case "rows", "attrs":
			experiment, ok = "fig8"+grid, true
		default:
			return fairbench.GridSpec{}, fmt.Errorf("fig8 -shard needs -grid rows or -grid attrs, got %q", grid)
		}
	}
	if !ok {
		return fairbench.GridSpec{}, fmt.Errorf("command %q has no shardable job grid", cmd)
	}
	spec := fairbench.GridSpec{Experiment: experiment, N: f.n, Seed: f.seed}
	switch cmd {
	case "fig7", "fig15", "cv":
		if strings.ToLower(ds) == "all" || ds == "" {
			return fairbench.GridSpec{}, fmt.Errorf("%s -shard spans one grid: pick -dataset adult|compas|german", cmd)
		}
		spec.Dataset = ds
	}
	switch cmd {
	case "cv":
		spec.K = f.k
	case "fig22":
		spec.Runs = f.runs
	}
	return f.bias.apply(spec), nil
}

// cmdFigures prints the figure commands' tables: every grid each command
// spans (one per dataset for fig7/fig15/cv with -dataset all, both fig8
// grids) runs on the in-process engine and renders exactly as a merged,
// pooled or served run of the same spec does. fig9 adds its Δ tables,
// which compare against the fig7 grid on the same data.
func cmdFigures(cmds []string, f *flags) error {
	var specs []fairbench.GridSpec
	for _, cmd := range cmds {
		datasets, grids := []string{f.dataset}, []string{f.grid}
		switch cmd {
		case "fig7", "fig15", "cv":
			if f.dataset == "" || strings.EqualFold(f.dataset, "all") {
				datasets = []string{"adult", "compas", "german"}
			}
		case "fig8":
			grids = []string{"rows", "attrs"}
		}
		for _, d := range datasets {
			for _, g := range grids {
				spec, err := specFor(cmd, d, g, f)
				if err != nil {
					return err
				}
				specs = append(specs, spec)
			}
		}
	}
	if f.out != "" && len(specs) > 1 {
		return fmt.Errorf("-out holds one grid's merged output: pick a single -dataset")
	}
	ctx, stop := signalContext()
	defer stop()
	opts := fairbench.RunOptions{
		Backend: fairbench.BackendInproc, Parallelism: f.parallel, CacheDir: f.cache, RemoteStore: f.remoteStore,
	}
	for i, spec := range specs {
		if i > 0 {
			fmt.Println()
		}
		out, rep, err := fairbench.Run(ctx, spec, opts)
		if err != nil {
			return err
		}
		if err := renderRun(out, rep, f.out); err != nil {
			return err
		}
		if spec.Experiment == "fig9" {
			clean := spec
			clean.Experiment, clean.Dataset = "fig7", out.Spec.Dataset
			cleanOut, _, err := fairbench.Run(ctx, clean, opts)
			if err != nil {
				return err
			}
			fmt.Println()
			if err := report.RenderDeltas(os.Stdout, cleanOut.Rows, out.Robustness); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseShard parses "i/K", rejecting any trailing input (Sscanf would
// quietly accept "0/3x" or "1/3/9" and run the wrong shard).
func parseShard(s string) (i, k int, err error) {
	is, ks, found := strings.Cut(s, "/")
	if !found {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/K (e.g. 0/3)", s)
	}
	if i, err = strconv.Atoi(is); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if k, err = strconv.Atoi(ks); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if k < 1 || i < 0 || i >= k {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < K", s)
	}
	return i, k, nil
}

// cmdShard runs one shard of a figure command's grid against the
// -cache/-remote-store result store and emits its envelope.
func cmdShard(spec fairbench.GridSpec, f *flags) error {
	i, k, err := parseShard(f.shard)
	if err != nil {
		return err
	}
	s, err := store.OpenBackend(f.cache, f.remoteStore)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	env, err := experiments.RunShard(ctx, spec, i, k, s, f.parallel)
	if err != nil {
		return err
	}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	if f.out == "" {
		_, err = fmt.Println(string(data))
		return err
	}
	if err := os.WriteFile(f.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fairbench: wrote shard %d/%d (%d of %d jobs) to %s\n",
		i, k, len(env.Indices), env.Total, f.out)
	return nil
}

func cmdMerge(files []string, out string) error {
	if len(files) == 0 {
		return fmt.Errorf("merge needs at least one envelope file")
	}
	envs := make([]*fairbench.ShardEnvelope, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if envs[i], err = fairbench.DecodeShardEnvelope(data); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	// The named merge attributes every validation failure to its file and
	// lists the shard indices still missing from an incomplete set.
	merged, err := fairbench.MergeShardsNamed(envs, files)
	if err != nil {
		return err
	}
	if err := report.RenderOutput(os.Stdout, merged); err != nil {
		return err
	}
	return writeOutput(merged, out)
}

// writeOutput writes the merged output as JSON to the -out file, if any.
func writeOutput(merged *fairbench.GridOutput, out string) error {
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fairbench: wrote merged output to %s\n", out)
	return nil
}

func cmdList() error {
	byStage := registry.ByStage()
	for _, stage := range []fair.Stage{fair.StagePre, fair.StageIn, fair.StagePost} {
		fmt.Printf("%s-processing:\n", stage)
		for _, n := range byStage[stage] {
			a, err := registry.New(n, registry.Config{})
			if err != nil {
				return err
			}
			var targets []string
			for _, t := range a.Targets() {
				targets = append(targets, string(t))
			}
			desc := strings.Join(targets, ", ")
			if desc == "" {
				desc = "(notion outside the five evaluated metrics)"
			}
			fmt.Printf("  %-18s optimizes %s\n", n, desc)
		}
	}
	return nil
}

// cmdEval evaluates one approach on one dataset, or on each with
// -dataset all — the library's Split/NewApproach/Evaluate path.
func cmdEval(ds, approach string, n int, seed int64) error {
	if approach == "" {
		return fmt.Errorf("eval requires -approach (see 'fairbench list')")
	}
	var srcs []*fairbench.Source
	switch strings.ToLower(ds) {
	case "adult":
		srcs = []*fairbench.Source{fairbench.Adult(n, seed)}
	case "compas":
		srcs = []*fairbench.Source{fairbench.COMPAS(n, seed)}
	case "german":
		srcs = []*fairbench.Source{fairbench.German(n, seed)}
	case "all", "":
		srcs = []*fairbench.Source{fairbench.Adult(n, seed), fairbench.COMPAS(n, seed), fairbench.German(n, seed)}
	default:
		return fmt.Errorf("unknown dataset %q", ds)
	}
	for _, src := range srcs {
		train, test := fairbench.Split(src.Data, 0.7, seed)
		a, err := fairbench.NewApproach(approach, src.Graph, seed)
		if err != nil {
			return err
		}
		row, err := fairbench.Evaluate(a, train, test, src.Graph)
		if err != nil {
			return err
		}
		if err := report.RowsTable(src.Data.Name, []fairbench.Row{row}).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
