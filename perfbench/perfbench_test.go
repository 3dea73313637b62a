package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/report"
)

func TestRowCheckFlagsPerturbedRow(t *testing.T) {
	for _, spec := range []experiments.Spec{
		{Experiment: "fig10", Dataset: "adult", N: 200, Seed: 3, Names: []string{"KamCal-DP", "Hardt-EO"}},
		{Experiment: "cv", Dataset: "german", N: 200, K: 2, Seed: 3},
	} {
		out, err := runGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rowDigests(out)
		if err != nil {
			t.Fatal(err)
		}
		cells := len(ref)
		if spec.Experiment == "cv" {
			cells *= spec.K
		}

		// Timing fields are not part of the check.
		timing := cloneOutput(out)
		if timing.Sensitivity != nil {
			timing.Sensitivity[0].Row.Seconds += 1
		} else {
			timing.Rows[0].Overhead += 1
		}
		if f, err := gridCheck(timing, ref, cells); err != nil || f != 0 {
			t.Errorf("%s: timing change flagged %d cells (err %v)", spec.Experiment, f, err)
		}

		// Any other field is.
		bad := cloneOutput(out)
		last := len(ref) - 1
		if bad.Sensitivity != nil {
			bad.Sensitivity[last].Row.Fair.ID = math.Nextafter(bad.Sensitivity[last].Row.Fair.ID, 2)
		} else {
			bad.Rows[last].Correct.Accuracy = math.Nextafter(bad.Rows[last].Correct.Accuracy, 2)
		}
		got, err := rowDigests(bad)
		if err != nil {
			t.Fatal(err)
		}
		if m := mismatchedRows(got, ref); len(m) != 1 || m[0] != last {
			t.Errorf("%s: perturbed row %d, mismatches %v", spec.Experiment, last, m)
		}
		if f, _ := gridCheck(bad, ref, cells); f != cells/len(ref) {
			t.Errorf("%s: perturbed row failed %d cells, want %d", spec.Experiment, f, cells/len(ref))
		}
	}
}

func cloneOutput(out *experiments.Output) *experiments.Output {
	c := *out
	c.Rows = slices.Clone(out.Rows)
	c.Sensitivity = slices.Clone(out.Sensitivity)
	return &c
}

func TestTableCheckFlagsPerturbedTable(t *testing.T) {
	out, err := runGrid(experiments.Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := render(out)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	out.Rows[2].Overhead = 12.345 // a wider timing value than any other row's
	if err := report.RenderOutput(&b, out); err != nil {
		t.Fatal(err)
	}
	served := b.String()
	if stripTiming(served) != want {
		t.Fatalf("a table differing only in its timing column was flagged:\n%s", served)
	}
	lines := strings.Split(served, "\n")
	row := lines[5] // title, header, separator, then rows
	f := strings.Fields(row)
	lines[5] = strings.Replace(row, f[2], perturbDigit(f[2]), 1)
	if stripTiming(strings.Join(lines, "\n")) == want {
		t.Errorf("a table with accuracy %s changed to %s was not flagged", f[2], perturbDigit(f[2]))
	}
	if stripTiming(`{"error": "run x failed"}`) == want {
		t.Error("an error body was not flagged")
	}
}

func perturbDigit(v string) string {
	last := v[len(v)-1]
	if last == '9' {
		return v[:len(v)-1] + "8"
	}
	return v[:len(v)-1] + string(last+1)
}

// TestReplayMatchesRun checks that the traced serial replay computes the
// same rows as Run, so the per-layer numbers describe the computation
// the end-to-end metrics time, and that the traced spans account for the
// untraced run's CPU within the reported tracing overhead.
func TestReplayMatchesRun(t *testing.T) {
	for _, spec := range []experiments.Spec{
		{Experiment: "fig10", Dataset: "adult", N: 400, Seed: 11},
		{Experiment: "cv", Dataset: "adult", N: 400, K: 5, Seed: 11},
	} {
		u := snapshot()
		out, err := runGrid(spec)
		untraced := since(u).cpu.Seconds()
		if err != nil {
			t.Fatal(err)
		}
		want, err := rowDigests(out)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planReplay(spec)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		u = snapshot()
		rout, err := plan.run(tr)
		traced := since(u).cpu.Seconds()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rowDigests(rout)
		if err != nil {
			t.Fatal(err)
		}
		if m := mismatchedRows(got, want); len(m) > 0 {
			t.Errorf("%s: replay rows %v differ from Run", spec.Experiment, m)
		}

		totals, cellTotal := layerTotals(tr, 0)
		if len(totals) == 0 {
			t.Fatalf("%s: no layer totals", spec.Experiment)
		}
		// The reported overhead is traced/untraced - 1, so the spans
		// account for the untraced CPU within it exactly when they account
		// for the traced run's own CPU. They may differ by the CPU a
		// serial replay spends outside its goroutine (the GC's background
		// workers on the other CPU) and by time the machine steals.
		overhead := (traced - untraced) / untraced
		t.Logf("%s: spans %.3fs, traced CPU %.3fs, untraced CPU %.3fs", spec.Experiment, cellTotal, traced, untraced)
		const margin = 0.25
		if diff := math.Abs(cellTotal-traced) / traced; diff > margin {
			t.Errorf("%s: spans total %.3fs, traced CPU %.3fs (%.0f%% apart); untraced CPU %.3fs, overhead %.0f%%",
				spec.Experiment, cellTotal, traced, 100*diff, untraced, 100*overhead)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("cell", 0, -1, at(0), at(100), nil)
	tr.record("fit", 0, root, at(10), at(40), nil)
	tr.record("predict", 0, root, at(30), at(60), nil) // overlaps fit by 10ms
	tr.record("metrics.id", 0, root, at(90), at(120), nil)
	self := tr.selfTimes()
	want := []time.Duration{40, 30, 30, 30}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i, tr.spans[i].Name, self[i], w*time.Millisecond)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at p%d, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5]); p != 100 || v != 5 {
		t.Errorf("tail of 5 samples = %v at p%d, want the maximum", v, p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --write-spec BENCHMARK.json")
	}
	// Every end-to-end metric is measured on every workload; every
	// per-layer metric on at least one.
	for _, trace := range []bool{false, true} {
		for _, d := range metricsFor(trace) {
			if len(d.In) == 0 || (!trace && len(d.In) != len(workloads)) {
				t.Errorf("%s is measured on %v", d.Name, d.In)
			}
		}
	}
}

// TestMain lets the test binary stand in for the benchmark binary when
// the serve workload's dispatcher re-execs it as a worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestServeWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and worker subprocesses")
	}
	res, err := runServe(2, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < warmGrids+1 {
		t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.log)
	}
	res.fillUnexercised()
	if m := res.missing(); len(m) > 0 {
		t.Errorf("untraced run lacks %v", m)
	}
	for name, v := range res.metrics {
		if v.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, v.Value)
		}
	}

	res, err = runServe(2, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res.fillUnexercised()
	if m := res.missing(); len(m) > 0 {
		t.Errorf("traced run lacks %v", m)
	}
	// Warm requests are served from the store: every cell a verified
	// hit, and no worker spawned. Cold requests spawn workers.
	want := map[string]float64{
		"store.hit_ratio":          1,
		"store.rejected":           0,
		"dispatch.spawns_per_warm": 0,
	}
	for name, v := range want {
		if got := res.metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := res.metrics["dispatch.spawns_per_cold"].Value; got < 1 {
		t.Errorf("dispatch.spawns_per_cold = %v, want at least 1", got)
	}
}
