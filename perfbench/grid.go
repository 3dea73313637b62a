package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fairbench"
	"fairbench/internal/experiments"
	"fairbench/internal/report"
)

// gridN is the Adult size of both grid workloads: large enough that one
// grid takes seconds on 2 CPUs, small enough for several grids per run.
const gridN = 3000

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// gridSpec is the grid a grid workload runs for one derived seed.
func gridSpec(workload string, seed int64) experiments.Spec {
	if workload == wlCV {
		return experiments.Spec{Experiment: "cv", Dataset: "adult", N: gridN, K: 5, Seed: seed}
	}
	return experiments.Spec{Experiment: "fig10", Dataset: "adult", N: gridN, Seed: seed}
}

// timedSpec is the spec whose grids a run times: the last setup's.
func timedSpec(workload string, seed int64) experiments.Spec {
	return gridSpec(workload, derive(seed, setupReps-1))
}

// runGrid executes one grid the way a library user does: the facade's
// Run, in-process, default parallelism, no result cache.
func runGrid(spec experiments.Spec) (*experiments.Output, error) {
	out, _, err := fairbench.Run(context.Background(), spec, fairbench.RunOptions{})
	return out, err
}

// gridSetup materializes the data, opens the grid and runs the untimed
// warm-up grid, setupReps times on fresh seeds; it returns the median
// setup time and the last warm-up grid's row digests, the reference the
// timed grids are checked against.
func gridSetup(workload string, seed int64) (setupS float64, ref []string, err error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		spec := gridSpec(workload, derive(seed, int64(rep)))
		if _, err := experiments.Open(spec); err != nil {
			return 0, nil, err
		}
		out, err := runGrid(spec)
		if err != nil {
			return 0, nil, fmt.Errorf("warm-up grid: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if ref, err = rowDigests(out); err != nil {
			return 0, nil, err
		}
	}
	return median(times), ref, nil
}

// checkRecorded compares the reference grid with the digest recorded
// for this seed, when one is recorded for this size and architecture.
func checkRecorded(workload string, seed int64, ref []string) (checked bool, err error) {
	rec, err := loadRecorded()
	if err != nil {
		return false, err
	}
	want, ok := rec.Digests[workload][strconv.FormatInt(seed, 10)]
	if !ok || rec.N != gridN || rec.Arch != runtime.GOARCH {
		return false, nil
	}
	if got := gridDigest(ref); got != want {
		return true, fmt.Errorf("%s seed %d: grid digest %s, recorded %s", workload, seed, got, want)
	}
	return true, nil
}

// gridCheck counts failed cells of one timed grid: a cell fails when a
// row it contributes to differs from the reference.
func gridCheck(out *experiments.Output, ref []string, cells int) (failed int, err error) {
	got, err := rowDigests(out)
	if err != nil {
		return cells, err
	}
	bad := mismatchedRows(got, ref)
	if len(bad) == 0 {
		return 0, nil
	}
	perRow := cells / len(ref)
	if perRow < 1 || len(got) != len(ref) {
		return cells, nil
	}
	return len(bad) * perRow, nil
}

// runGridWorkload is the untraced run of fig10-sens or cv-adam.
func runGridWorkload(workload string, seed int64, seconds float64) (*result, error) {
	res := newResult(workload, false)
	setupS, ref, err := gridSetup(workload, seed)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setupReps))
	recordedOK := true
	if checked, err := checkRecorded(workload, seed, ref); err != nil {
		res.logf("output check: %v", err)
		recordedOK = false
	} else if !checked {
		res.logf("output check: no digest recorded for seed %d; checking the run's grids against each other", seed)
	}

	spec := timedSpec(workload, seed)
	g, err := experiments.Open(spec)
	if err != nil {
		return nil, err
	}
	cells := g.Len()
	var walls []float64
	var cpu time.Duration
	sampler := startRSSSampler(10 * time.Millisecond)
	defer sampler.stop()
	phase := time.Now()
	for grids := 0; grids < 3 || time.Since(phase).Seconds()+median(walls) <= seconds; grids++ {
		if time.Since(phase).Seconds() > 3*seconds {
			break // every grid is failing; the failures are already counted
		}
		u := snapshot()
		out, err := runGrid(spec)
		d := since(u)
		res.attempted += cells
		if err != nil {
			res.failed += cells
			res.logf("grid %d: %v", len(walls), err)
			continue
		}
		walls = append(walls, d.wall.Seconds())
		cpu += d.cpu
		failed, err := gridCheck(out, ref, cells)
		if err != nil {
			res.logf("grid %d: %v", len(walls), err)
		}
		if !recordedOK {
			failed = cells
		}
		res.failed += failed
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every timed grid failed")
	}
	res.set("op_ms", 1000*median(walls), fmt.Sprintf("median wall time of %d grids of %d cells (s): %s", len(walls), cells, fmtList(walls)))
	res.set("cpu_ms_per_cell", 1000*cpu.Seconds()/float64(len(walls)*cells), "user+sys over the timed grids")
	rss, n := sampler.p90Since(phase)
	res.set("rss_p90_mb", rss, fmt.Sprintf("90th percentile of %d samples", n))
	return res, nil
}

// runGridTrace is the traced run: untimed set-up, then untraced grids
// alternating with traced serial replays until the run length is used.
func runGridTrace(workload string, seed int64, seconds float64) (*result, error) {
	res := newResult(workload, true)
	if _, _, err := gridSetup(workload, seed); err != nil {
		return nil, err
	}
	spec := timedSpec(workload, seed)
	res.set("synth.materialize_ms", materializeMS(spec), "median of 5 fresh generations")
	res.set("experiments.open_ms", openMS(spec, 5), "median of 5 opens of never-seen specs")

	plan, err := planReplay(spec)
	if err != nil {
		return nil, err
	}
	cells := len(plan.cells)
	var (
		idle, gcFrac, alloc, untracedCPU, tracedCPU, renderMS []float64
		layers                                                = map[string][]float64{}
	)
	t := newTracer()
	phase := time.Now()
	for len(tracedCPU) < 1 || time.Since(phase).Seconds() < seconds {
		u := snapshot()
		out, err := runGrid(spec)
		d := since(u)
		if err != nil {
			return nil, err
		}
		workers := float64(runtime.GOMAXPROCS(0))
		idle = append(idle, 1-d.cpu.Seconds()/(d.wall.Seconds()*workers))
		gcFrac = append(gcFrac, d.gcFrac)
		alloc = append(alloc, d.allocsMB/float64(cells))
		untracedCPU = append(untracedCPU, d.cpu.Seconds())
		start := time.Now()
		if err := report.RenderOutput(io.Discard, out); err != nil {
			return nil, err
		}
		renderMS = append(renderMS, msSince(start))

		from := len(t.spans)
		u = snapshot()
		rout, err := plan.run(t)
		d = since(u)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		tracedCPU = append(tracedCPU, d.cpu.Seconds())
		totals, _ := layerTotals(t, from)
		for name, v := range totals {
			layers[name] = append(layers[name], v)
		}
		res.attempted += cells
		if f, err := gridCheck(rout, mustDigests(out), cells); err != nil || f > 0 {
			res.failed += f
			res.logf("traced replay differs from Run on %d cell(s) %v", f, err)
		}
	}
	res.setLayers(layers, "traced replays")
	res.set("runner.idle_frac", median(idle), fmt.Sprintf("1-CPU/(wall*%d workers), median of %d untraced grids", runtime.GOMAXPROCS(0), len(idle)))
	res.set("gc.cpu_frac", median(gcFrac), "GC CPU over busy CPU in untraced grids")
	res.set("alloc_mb_per_cell", median(alloc), "heap allocation per cell in untraced grids")
	res.set("report.render_ms", median(renderMS), "RenderOutput of the untraced grids")
	u, tr := median(untracedCPU), median(tracedCPU)
	res.set("trace.overhead_frac", (tr-u)/u, fmt.Sprintf("traced serial replay CPU %.3fs vs untraced grid CPU %.3fs", tr, u))
	res.tracer = t
	return res, nil
}

func mustDigests(out *experiments.Output) []string {
	d, _ := rowDigests(out) // out came from a successful Run of a row-bearing grid
	return d
}

// materializeMS times fresh generations of the spec's dataset shape
// (never memoized: each call synthesizes).
func materializeMS(spec experiments.Spec) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		s := spec
		s.Seed = derive(spec.Seed, int64(1000+i))
		start := time.Now()
		_, err := sourceOf(s)
		if err != nil {
			return 0
		}
		ms = append(ms, msSince(start))
	}
	return median(ms)
}

// openMS times experiments.Open on reps never-seen variants of spec,
// so each open synthesizes its data as a new grid's first open does.
func openMS(spec experiments.Spec, reps int) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		s := spec
		s.Seed = derive(spec.Seed, int64(2000+i))
		start := time.Now()
		if _, err := experiments.Open(s); err != nil {
			return 0
		}
		ms = append(ms, msSince(start))
	}
	return median(ms)
}

// recordDigests runs the timed grid of each grid workload for seeds
// 0..n-1 and writes their digests to path, for embedding in the binary.
func recordDigests(n int, path string) error {
	rec := recordedDigests{Arch: runtime.GOARCH, N: gridN, Digests: map[string]map[string]string{}}
	for _, w := range []string{wlSens, wlCV} {
		rec.Digests[w] = map[string]string{}
		for s := 0; s < n; s++ {
			out, err := runGrid(timedSpec(w, int64(s)))
			if err != nil {
				return err
			}
			rows, err := rowDigests(out)
			if err != nil {
				return err
			}
			rec.Digests[w][strconv.Itoa(s)] = gridDigest(rows)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
