package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
)

// TestMain doubles as the worker subprocess body — the re-exec pattern
// internal/dispatch and internal/sched tests use. "worker" runs a real
// shard via dispatch.Worker; with FAIRBENCH_WORKER_DELAY_MS in its
// environment it pauses first, which is how cancellation tests hold a
// genuinely live worker open. "fail" is a worker that exits non-zero.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		idx, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.Worker(os.Getenv("HELPER_MANIFEST"), idx, os.Getenv("HELPER_OUT"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "fail":
		fmt.Fprintln(os.Stderr, "injected worker failure")
		os.Exit(3)
	}
	os.Exit(2)
}

// helperSpawn re-execs this test binary as a worker subprocess.
func helperSpawn(extraEnv ...string) dispatch.SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER=worker",
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

// countingSpawn wraps helperSpawn and counts invocations — the probe
// that proves a warm grid never reaches a worker subprocess.
func countingSpawn(n *atomic.Int64, extraEnv ...string) dispatch.SpawnFunc {
	inner := helperSpawn(extraEnv...)
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		n.Add(1)
		return inner(manifestPath, shard, outPath)
	}
}

func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonical marshals an output with its timing fields zeroed (the
// byte-identical guarantee covers the metric payload).
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

// TestResolveBackend pins the BackendAuto resolution rules: hosts or a
// directory select the pool, nothing selects in-process, and an
// explicit backend always wins.
func TestResolveBackend(t *testing.T) {
	hosts := []sched.Host{{Name: "a"}}
	cases := []struct {
		opts RunOptions
		want Backend
	}{
		{RunOptions{}, BackendInproc},
		{RunOptions{Dir: "/tmp/x"}, BackendPool},
		{RunOptions{Hosts: hosts}, BackendPool},
		{RunOptions{Dir: "/tmp/x", Hosts: hosts}, BackendPool},
		{RunOptions{Backend: BackendPool}, BackendPool},
		{RunOptions{Backend: BackendInproc, Dir: "/tmp/x", Hosts: hosts}, BackendInproc},
	}
	for _, c := range cases {
		if got := resolve(c.opts); got != c.want {
			t.Errorf("resolve(%+v) = %q, want %q", c.opts, got, c.want)
		}
	}
}

// TestBackendsMatchSerial is the engine's core guarantee: one Run call,
// both backends — the pool on its built-in local host and on explicit
// hosts — all byte-identical to the serial reference.
func TestBackendsMatchSerial(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	ctx := context.Background()
	eng := New(RunOptions{})

	out, rep, err := eng.Run(ctx, spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("inproc output diverges from serial run")
	}
	if rep.Backend != BackendInproc || rep.CellsComputed != 4 || rep.Fingerprint == "" {
		t.Fatalf("inproc report %+v", rep)
	}

	out, rep, err = eng.Run(ctx, spec, RunOptions{
		Dir: t.TempDir(), Shards: 2, Procs: 2, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("local pool output diverges from serial run")
	}
	if rep.Backend != BackendPool || rep.Sched == nil || rep.CellsComputed != 4 {
		t.Fatalf("local pool report %+v", rep)
	}
	if len(rep.Sched.Completed["local"]) != len(rep.Sched.Ranges) {
		t.Fatalf("built-in local host completed %v of %d ranges", rep.Sched.Completed, len(rep.Sched.Ranges))
	}

	out, rep, err = eng.Run(ctx, spec, RunOptions{
		Dir:   t.TempDir(),
		Hosts: []sched.Host{{Name: "h1", Slots: 2}},
		Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("host pool output diverges from serial run")
	}
	if rep.Backend != BackendPool || rep.Sched == nil || rep.CellsComputed != 4 {
		t.Fatalf("host pool report %+v", rep)
	}
}

// TestCancellationStopsWorkersPromptly: cancel a pool-backed run
// while delayed workers are genuinely executing; Run must return quickly
// with an error wrapping context.Canceled, and the directory must resume
// to the serial answer afterwards.
func TestCancellationStopsWorkersPromptly(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	eng := New(RunOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := eng.Run(ctx, spec, RunOptions{
		Dir: dir, Shards: 2, Procs: 2,
		Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers were told to sleep 20s; a prompt stop returns in well
	// under that, even on a loaded machine.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; workers were not stopped promptly", elapsed)
	}

	out, rep, err := eng.ResumeRun(context.Background(), dir, RunOptions{
		Procs: 2, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("resumed output diverges from serial run")
	}
	if rep.Backend != BackendPool {
		t.Fatalf("resume report %+v", rep)
	}
}

// TestInprocCancelledBeforeStart: an already-cancelled ctx fails fast on
// the in-process backend too.
func TestInprocCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := New(RunOptions{}).Run(ctx, smallSpec(), RunOptions{Backend: BackendInproc})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWarmGridSpawnsNothing: once the store holds every cell, a
// pool-backed Run — local or on explicit hosts — is answered by the
// calling process: ServedFromCache set, computed=0, the spawn counter
// still zero, and no manifest written.
func TestWarmGridSpawnsNothing(t *testing.T) {
	spec := smallSpec()
	cache := t.TempDir()
	eng := New(RunOptions{CacheDir: cache})

	// Warm the store with an in-process run.
	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed != 4 || rep.CellsCached != 0 {
		t.Fatalf("cold report %+v", rep)
	}

	var spawns atomic.Int64
	dir := t.TempDir()
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: dir, Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.Backend != BackendPool || rep.CellsComputed != 0 || rep.CellsCached != 4 {
		t.Fatalf("warm local pool report %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, dispatch.ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("warm run wrote a manifest (stat err %v)", err)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("warm output diverges from serial run")
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm run spawned %d worker subprocess(es), want 0", n)
	}

	out, rep, err = eng.Run(context.Background(), spec, RunOptions{
		Dir:   t.TempDir(),
		Hosts: []sched.Host{{Name: "h1"}},
		Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.Backend != BackendPool || rep.CellsComputed != 0 {
		t.Fatalf("warm host pool report %+v", rep)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("warm sched output diverges from serial run")
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm sched run spawned %d worker subprocess(es), want 0", n)
	}
}

// TestDefaultsInherit: fields left zero on a call inherit the engine's
// defaults — the daemon's usage pattern (pin cache + spawn once, pass
// only the per-run directory).
func TestDefaultsInherit(t *testing.T) {
	spec := smallSpec()
	var spawns atomic.Int64
	eng := New(RunOptions{
		CacheDir: t.TempDir(), Procs: 2, Shards: 2,
		Spawn: countingSpawn(&spawns),
	})
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != BackendPool || rep.CellsComputed != 4 {
		t.Fatalf("report %+v", rep)
	}
	if spawns.Load() == 0 {
		t.Fatal("default Spawn was not used")
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("output diverges from serial run")
	}
}

// onceFailing is a spawn function whose first attempt at every range
// exits non-zero and whose later attempts run the real worker. It
// counts attempts per range.
type onceFailing struct {
	mu       sync.Mutex
	attempts map[int]int
}

func (f *onceFailing) spawn(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
	f.mu.Lock()
	if f.attempts == nil {
		f.attempts = map[int]int{}
	}
	f.attempts[shard]++
	first := f.attempts[shard] == 1
	f.mu.Unlock()
	if first {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FAIRBENCH_TEST_HELPER=fail")
		return cmd, nil
	}
	return helperSpawn()(manifestPath, shard, outPath)
}

// TestRetriesCountAttemptsPerRange pins Retries' meaning on the
// built-in local host: extra attempts per range. With Retries 0 every
// range gets one attempt, so a failing first attempt leaves the range
// missing; with Retries 1 each range gets a second attempt and the run
// completes.
func TestRetriesCountAttemptsPerRange(t *testing.T) {
	spec := smallSpec()
	eng := New(RunOptions{})

	none := &onceFailing{}
	_, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Retries: 0, Backoff: -1, Spawn: none.spawn,
	})
	if err == nil || !strings.Contains(err.Error(), "still missing") ||
		!strings.Contains(err.Error(), "injected worker failure") {
		t.Fatalf("Retries 0: want a missing-range error naming the worker failure, got %v", err)
	}
	if len(rep.Sched.Ranges) != 2 || len(rep.Sched.Failed) != 2 {
		t.Fatalf("Retries 0: report %+v", rep.Sched)
	}
	for i := range rep.Sched.Ranges {
		if none.attempts[i] != 1 || rep.Sched.Attempts[i] != 1 {
			t.Fatalf("Retries 0: range %d spawned %d time(s), report says %d; want one attempt",
				i, none.attempts[i], rep.Sched.Attempts[i])
		}
	}

	one := &onceFailing{}
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Retries: 1, Backoff: -1, Spawn: one.spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Sched.Ranges {
		if one.attempts[i] != 2 || rep.Sched.Attempts[i] != 2 {
			t.Fatalf("Retries 1: range %d spawned %d time(s), report says %d; want two attempts",
				i, one.attempts[i], rep.Sched.Attempts[i])
		}
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("retried output diverges from serial run")
	}
}

// TestLocalPoolSurvivesHostStrikes: on the built-in one-host pool,
// separate ranges that each fail once add up to more strikes than the
// default MaxHostFailures (3). Excluding the only host would fail every
// range still waiting for its retry; the pool must instead keep the
// host, retry each range once, and finish byte-identical to serial.
func TestLocalPoolSurvivesHostStrikes(t *testing.T) {
	spec := smallSpec()
	flaky := &onceFailing{}
	out, rep, err := New(RunOptions{}).Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Shards: 4, Procs: 2, Retries: 1, Spawn: flaky.spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Sched.Ranges); n < 4 {
		t.Fatalf("plan has %d ranges, want at least 4 (more than the strike budget)", n)
	}
	if len(rep.Sched.Excluded) != 0 {
		t.Fatalf("the only host was excluded: %v", rep.Sched.Excluded)
	}
	for i := range rep.Sched.Ranges {
		if flaky.attempts[i] != 2 {
			t.Fatalf("range %d spawned %d time(s), want 2", i, flaky.attempts[i])
		}
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("output after per-range failures diverges from serial run")
	}
}

// TestResumeParentDispatchLayout: a run directory left by the
// dispatcher that predates range plans — a manifest with no Ranges and
// some part files cut on the uniform split — resumes through the one
// path, reusing its parts, byte-identical to serial. A fresh Run into
// the same directory adopts it the same way. Serve state directories
// that outlive an upgrade take exactly this path.
func TestResumeParentDispatchLayout(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 5}
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.Open(ns)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: ns, Shards: 3, Fingerprint: fp}
	manifestPath := filepath.Join(dir, dispatch.ManifestName)
	if err := m.Write(manifestPath); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.Worker(manifestPath, 0, filepath.Join(dir, dispatch.PartName(0))); err != nil {
		t.Fatal(err)
	}
	uniform, err := experiments.PlanShards(ns, 3)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(RunOptions{Procs: 2, Spawn: helperSpawn()})
	out, rep, err := eng.ResumeRun(context.Background(), dir, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, spec)
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("resumed parent-layout directory diverges from serial run")
	}
	s := rep.Sched
	if fmt.Sprint(s.Ranges) != fmt.Sprint(uniform) {
		t.Fatalf("resumed on ranges %v, want the uniform split %v", s.Ranges, uniform)
	}
	if fmt.Sprint(s.Reused) != "[0]" || fmt.Sprint(s.Completed["local"]) != "[1 2]" {
		t.Fatalf("reused %v, completed %v; want part 0 reused and 1, 2 run", s.Reused, s.Completed)
	}

	out, rep, err = eng.Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) || len(rep.Sched.Reused) != 3 || rep.Sched.CellsComputed != rep.CellsComputed {
		t.Fatalf("re-run into the parent-layout directory: report %+v", rep.Sched)
	}
}
