// The tests below check the wire protocol directly (ValidatePart,
// AcceptPart, the bounded stderr capture) and end to end: the run,
// kill, resume and retry stories drive the protocol through its one
// coordinator, the engine's pool backend on its built-in local host —
// the path `fairbench dispatch` and `fairbench resume` take.
package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/shard"
)

// TestMain doubles as the worker subprocess body: these tests re-exec
// the test binary with FAIRBENCH_TEST_HELPER set, the same pattern the
// standard library uses for exec tests. "worker" runs a real shard via
// Worker; "hang" writes its pid to a file and sleeps so the parent test
// can SIGKILL a genuinely live worker mid-run; "fail" exits non-zero.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		shard, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.Worker(os.Getenv("HELPER_MANIFEST"), shard, os.Getenv("HELPER_OUT"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "hang":
		pidfile := os.Getenv("HELPER_PIDFILE")
		if err := os.WriteFile(pidfile, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
			os.Exit(1)
		}
		time.Sleep(time.Minute) // the parent kills us long before this
		os.Exit(0)
	case "fail":
		fmt.Fprintln(os.Stderr, "injected worker failure")
		os.Exit(3)
	}
	os.Exit(2)
}

// helperSpawn re-execs this test binary in the given helper mode.
func helperSpawn(mode string, extraEnv ...string) dispatch.SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER="+mode,
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonical marshals an output with its timing fields zeroed (the pool
// only guarantees the metric payload).
func canonical(t *testing.T, out *experiments.Output) []byte {
	t.Helper()
	for _, pts := range out.Efficiency {
		for i := range pts {
			pts[i].Row.Seconds, pts[i].Row.Overhead = 0, 0
		}
	}
	for i := range out.Rows {
		out.Rows[i].Seconds, out.Rows[i].Overhead = 0, 0
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func serialReference(t *testing.T, spec experiments.Spec) []byte {
	t.Helper()
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, out)
}

// run executes spec on the engine's pool backend with the built-in
// local host — what `fairbench dispatch` does.
func run(spec experiments.Spec, opts engine.RunOptions) (*experiments.Output, *engine.Report, error) {
	opts.Backend = engine.BackendPool
	return engine.New(engine.RunOptions{}).Run(context.Background(), spec, opts)
}

// resume continues the run in dir — what `fairbench resume` does.
func resume(dir string, opts engine.RunOptions) (*experiments.Output, *engine.Report, error) {
	return engine.New(engine.RunOptions{}).ResumeRun(context.Background(), dir, opts)
}

// ran lists the plan positions the local host executed this call.
func ran(rep *engine.Report) []int { return rep.Sched.Completed["local"] }

// TestDispatchMatchesSerial: the plain happy path — one worker
// subprocess per planned range, merged output byte-identical to a
// serial run.
func TestDispatchMatchesSerial(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	out, rep, err := run(spec, engine.RunOptions{
		Dir: t.TempDir(), Shards: 3, Procs: 2, Spawn: helperSpawn("worker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("dispatched output diverges from serial run")
	}
	if rep.Backend != engine.BackendPool || len(rep.Sched.Ranges) < 2 || len(ran(rep)) != len(rep.Sched.Ranges) ||
		len(rep.Sched.Reused) != 0 || rep.CellsComputed != 4 || rep.CellsCached != 0 {
		t.Fatalf("report %+v / %+v", rep, rep.Sched)
	}
}

// TestKillResumeMatchesSerial is the PR's acceptance gate: dispatch a
// grid, SIGKILL one worker while it is genuinely running, watch the
// dispatch fail resumably, resume it, and require the merged metric
// output to be byte-identical to a serial cold run. Then re-dispatch the
// same grid warm into a fresh directory and require zero cell
// computations, proven by the envelopes' cached provenance.
func TestKillResumeMatchesSerial(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 5}
	want := serialReference(t, spec)
	dir, cacheDir := t.TempDir(), t.TempDir()
	pidfile := filepath.Join(t.TempDir(), "hang.pid")

	// The killer: SIGKILL the hanging worker as soon as it reports a pid.
	killed := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			data, err := os.ReadFile(pidfile)
			if err == nil {
				pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
				if err != nil {
					killed <- err
					return
				}
				killed <- syscall.Kill(pid, syscall.SIGKILL)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		killed <- fmt.Errorf("no worker pid appeared to kill")
	}()

	// Range 1's worker hangs (and gets killed); procs=1 keeps the
	// sequence deterministic: range 0 completes, range 1 dies, range 2
	// completes, the run fails listing range 1.
	normal := helperSpawn("worker")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 1 {
			return helperSpawn("hang", "HELPER_PIDFILE="+pidfile)(manifestPath, shard, outPath)
		}
		return normal(manifestPath, shard, outPath)
	}
	_, rep, err := run(spec, engine.RunOptions{
		Dir: dir, Shards: 3, Procs: 1, Retries: 0, CacheDir: cacheDir, Spawn: spawn,
	})
	if err == nil {
		t.Fatal("dispatch succeeded despite a killed worker")
	}
	if ke := <-killed; ke != nil {
		t.Fatalf("failed to kill the worker: %v", ke)
	}
	if len(rep.Sched.Ranges) != 3 || len(rep.Sched.Failed) != 1 || rep.Sched.Failed[0] != 1 {
		t.Fatalf("failed ranges %v of %v, want [1]", rep.Sched.Failed, rep.Sched.Ranges)
	}
	if !strings.Contains(err.Error(), "range(s) 1 still missing") ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("error does not name the missing range with a resume hint: %v", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := os.Stat(filepath.Join(dir, dispatch.PartName(i))); err != nil {
			t.Fatalf("surviving shard %d left no envelope: %v", i, err)
		}
	}

	// Resume completes only the missing range and merges.
	out, rep, err := resume(dir, engine.RunOptions{Procs: 2, Spawn: normal})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sched.Reused) != 2 || len(ran(rep)) != 1 || ran(rep)[0] != 1 {
		t.Fatalf("resume report %+v", rep.Sched)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("killed-and-resumed output diverges from serial run")
	}

	// Warm re-dispatch: every cell of every range comes from the cache.
	out2, rep2, err := run(spec, engine.RunOptions{
		Dir: t.TempDir(), Shards: 3, Procs: 2, CacheDir: cacheDir, Spawn: normal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsComputed != 0 {
		t.Fatalf("warm re-dispatch computed %d cells, want 0 (cached %d)",
			rep2.CellsComputed, rep2.CellsCached)
	}
	if rep2.CellsCached != rep.CellsCached+rep.CellsComputed {
		t.Fatalf("warm cached %d cells, want the full grid", rep2.CellsCached)
	}
	if !bytes.Equal(want, canonical(t, out2)) {
		t.Fatal("warm re-dispatch diverges from serial run")
	}
}

// TestRetriesRecoverFlakyWorker: a range whose first attempt exits
// non-zero succeeds on the retry without failing the run.
func TestRetriesRecoverFlakyWorker(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	attempts := 0
	normal, fail := helperSpawn("worker"), helperSpawn("fail")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 0 {
			attempts++
			if attempts == 1 {
				return fail(manifestPath, shard, outPath)
			}
		}
		return normal(manifestPath, shard, outPath)
	}
	out, rep, err := run(spec, engine.RunOptions{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Retries: 1, Spawn: spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched.Attempts[0] != 2 {
		t.Fatalf("range 0 took %d attempts, want 2", rep.Sched.Attempts[0])
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("retried output diverges from serial run")
	}
}

// TestWorkerLyingAboutSuccessIsCaught: an exit-0 worker that wrote no
// envelope must be treated as a failure, not silently merged around.
func TestWorkerLyingAboutSuccessIsCaught(t *testing.T) {
	spawn := func(string, int, string) (*exec.Cmd, error) {
		return exec.Command("true"), nil
	}
	_, _, err := run(smallSpec(), engine.RunOptions{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Spawn: spawn,
	})
	if err == nil || !strings.Contains(err.Error(), "exited 0 but") {
		t.Fatalf("want exit-0-without-envelope failure, got %v", err)
	}
}

func TestResumeRequiresManifest(t *testing.T) {
	if _, _, err := resume(t.TempDir(), engine.RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("want nothing-to-resume error, got %v", err)
	}
}

// TestDirCannotMixRuns: dispatching a different grid into a live run
// directory must be refused.
func TestDirCannotMixRuns(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := run(smallSpec(), engine.RunOptions{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err != nil {
		t.Fatal(err)
	}
	other := smallSpec()
	other.Seed = 99
	if _, _, err := run(other, engine.RunOptions{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("want different-run refusal, got %v", err)
	}
	// Same grid, conflicting cache directory: the manifest's cache is
	// part of the run's identity and cannot be switched silently.
	if _, _, err := run(smallSpec(), engine.RunOptions{
		Dir: dir, Shards: 2, Procs: 1, CacheDir: t.TempDir(), Spawn: helperSpawn("worker"),
	}); err == nil || !strings.Contains(err.Error(), "cannot change") {
		t.Fatalf("want cache-dir conflict refusal, got %v", err)
	}
}

// TestValidatePartEnforcesPlanBoundaries: under an explicit range plan,
// a same-grid envelope cut on different boundaries must be rejected —
// otherwise a copied part from another run directory of the same grid
// would be reused forever and poison every merge attempt.
func TestValidatePartEnforcesPlanBoundaries(t *testing.T) {
	spec, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	planA := []shard.Range{{Start: 0, End: 1}, {Start: 1, End: n}}
	planB := []shard.Range{{Start: 0, End: n - 1}, {Start: n - 1, End: n}}
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: planA}

	dir := t.TempDir()
	write := func(plan []shard.Range, i int) string {
		env, err := experiments.RunShardPlanned(spec, plan, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, dispatch.PartName(i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Same grid, same fingerprint, same plan position — wrong boundaries.
	path := write(planB, 0)
	if err := dispatch.ValidatePart(path, m, 0); err == nil ||
		!strings.Contains(err.Error(), "range") {
		t.Fatalf("foreign-boundary envelope accepted: %v", err)
	}
	// The genuine cut validates.
	if err := dispatch.ValidatePart(write(planA, 0), m, 0); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidPartIsDiscardedAndRerun: a corrupt part file in the
// directory is moved aside and its range re-executed.
func TestInvalidPartIsDiscardedAndRerun(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	if _, _, err := run(spec, engine.RunOptions{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, dispatch.PartName(1))
	if err := os.WriteFile(part, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, rep, err := resume(dir, engine.RunOptions{Procs: 1, Spawn: helperSpawn("worker")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sched.Reused) != 1 || len(ran(rep)) != 1 || ran(rep)[0] != 1 {
		t.Fatalf("report %+v", rep.Sched)
	}
	if _, err := os.Stat(part + ".invalid"); err != nil {
		t.Fatal("invalid part not preserved aside")
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("re-run output diverges from serial run")
	}
}

func TestBoundedBufferCapsAndMarks(t *testing.T) {
	b := dispatch.NewBoundedBuffer(128)
	line := []byte("0123456789abcdef\n")
	var total int64
	for i := 0; i < 100; i++ {
		n, err := b.Write(line)
		if err != nil || n != len(line) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		total += int64(n)
	}
	s := b.String()
	if int64(len(s)) >= total {
		t.Fatalf("buffer did not cap: holds %d of %d bytes written", len(s), total)
	}
	if b.Truncated() == 0 {
		t.Fatal("no bytes reported dropped after overflow")
	}
	if !strings.Contains(s, fmt.Sprintf("[%d stderr bytes dropped]", b.Truncated())) {
		t.Fatalf("truncation marker missing from %q", s)
	}
	if !strings.HasPrefix(s, "0123456789abcdef") {
		t.Fatalf("head of the stream lost: %q", s[:32])
	}
	if !strings.HasSuffix(strings.TrimRight(s, "\n"), "0123456789abcdef") {
		t.Fatalf("tail of the stream lost: %q", s[len(s)-32:])
	}
}

func TestBoundedBufferSmallWritesUntruncated(t *testing.T) {
	b := dispatch.NewBoundedBuffer(1024)
	b.Write([]byte("only a few bytes"))
	if got := b.String(); got != "only a few bytes" {
		t.Fatalf("got %q", got)
	}
	if b.Truncated() != 0 {
		t.Fatalf("spurious truncation: %d", b.Truncated())
	}
}

// TestStderrTailKeepsTruncationMarker: when the capture was capped, the
// marker line must survive StderrTail's last-3-lines cut — a failure
// event that silently hid the fact that output was dropped would send
// operators debugging the wrong thing.
func TestStderrTailKeepsTruncationMarker(t *testing.T) {
	b := dispatch.NewBoundedBuffer(256)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(b, "noise line %d\n", i)
	}
	tail := dispatch.StderrTail(b.String())
	if !strings.Contains(tail, "stderr bytes dropped") {
		t.Fatalf("marker cut from tail: %q", tail)
	}
	if !strings.Contains(tail, "199") {
		t.Fatalf("final lines cut from tail: %q", tail)
	}
}

// TestAcceptPartPromotesExactlyValidParts: AcceptPart is the single
// promotion point schedulers route acceptance through — a validating
// attempt file is renamed into place, an invalid one is refused with
// the part path untouched.
func TestAcceptPartPromotesExactlyValidParts(t *testing.T) {
	spec, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan := []shard.Range{{Start: 0, End: 1}, {Start: 1, End: g.Len()}}
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: plan}
	dir := t.TempDir()
	partPath := filepath.Join(dir, dispatch.PartName(0))

	bad := filepath.Join(dir, "part-000.json.attempt-0")
	if err := os.WriteFile(bad, []byte(`{"fault":"corrupt"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.AcceptPart(bad, partPath, m, 0); err == nil {
		t.Fatal("corrupt attempt accepted")
	}
	if _, err := os.Stat(partPath); err == nil {
		t.Fatal("rejected attempt still materialized the part")
	}

	env, err := experiments.RunShardPlanned(spec, plan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "part-000.json.attempt-1")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.AcceptPart(good, partPath, m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Fatal("accepted attempt file was copied, not renamed")
	}
	if err := dispatch.ValidatePart(partPath, m, 0); err != nil {
		t.Fatalf("promoted part does not validate: %v", err)
	}
}
