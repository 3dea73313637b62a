// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the program's public surfaces (the fairbench facade's
// Run for grids, the serve daemon's HTTP API for requests), checks every
// output, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 270, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload fig10-sens --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics and the
// tracing overhead, and writes its spans under .bench_build/traces. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Notes (percentiles, sample counts) and
// log lines are printed before the result line, never inside it.
type result struct {
	workload  string
	defs      map[string]metricDef
	attempted int
	failed    int
	metrics   map[string]metricValue
	notes     map[string]string
	log       []string
	tracer    *tracer
}

func newResult(workload string, trace bool) *result {
	r := &result{workload: workload, defs: map[string]metricDef{},
		metrics: map[string]metricValue{}, notes: map[string]string{}}
	for _, d := range metricsFor(trace) {
		r.defs[d.Name] = d
	}
	return r
}

// set records a metric of the run's mode; a name the mode does not
// declare is a bug in the benchmark.
func (r *result) set(name string, v float64, note string) {
	d, ok := r.defs[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: %q is not a metric of this mode", name))
	}
	r.metrics[name] = metricValue{Value: v, Unit: d.Unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *result) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

// setLayers records the replayed per-layer totals, each a list of
// seconds per grid, as their medians.
func (r *result) setLayers(layers map[string][]float64, what string) {
	for name, v := range layers {
		r.set(name, median(v), fmt.Sprintf("seconds per grid, median of %d %s", len(v), what))
	}
}

// fillUnexercised reports 0 for every metric whose layer the workload
// does not go through, so each run prints every metric of its mode.
func (r *result) fillUnexercised() {
	for name, d := range r.defs {
		if _, ok := r.metrics[name]; !ok && !d.exercises(r.workload) {
			r.set(name, 0, "not exercised by "+r.workload)
		}
	}
}

// missing lists metrics of the run's mode it did not produce.
func (r *result) missing() []string {
	var out []string
	for name := range r.defs {
		if _, ok := r.metrics[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// commit names the measured source revision, as run.sh found it.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every spec and the request order derive from")
	seconds := fs.Float64("seconds", runSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeSpec := fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	record := fs.Int("record-digests", 0, "record grid digests for seeds 0..N-1 into perfbench/digests.json and exit")
	fs.Parse(os.Args[1:])

	if err := run(*workload, *seed, *seconds, *trace, *writeSpec, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func run(workload string, seed int64, seconds float64, trace int, writeSpec string, record int) error {
	switch {
	case writeSpec != "":
		data, err := benchmarkJSON()
		if err != nil {
			return err
		}
		return os.WriteFile(writeSpec, data, 0o644)
	case record > 0:
		return recordDigests(record, "perfbench/digests.json")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	probe := newEnvProbe()
	var (
		res *result
		err error
	)
	switch workload {
	case wlSens, wlCV:
		if trace == 1 {
			res, err = runGridTrace(workload, seed, seconds)
		} else {
			res, err = runGridWorkload(workload, seed, seconds)
		}
	case wlServe:
		res, err = runServe(seed, seconds, trace == 1, filepath.Join(".bench_build", "tmp"))
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, workloadNames())
	}
	if err != nil {
		return err
	}
	res.fillUnexercised()
	if m := res.missing(); len(m) > 0 {
		return fmt.Errorf("%s produced no value for %s", workload, strings.Join(m, ", "))
	}
	if res.tracer != nil {
		path, err := res.tracer.write(filepath.Join(".bench_build", "traces"), workload, seed)
		if err != nil {
			return err
		}
		res.logf("spans: %d written to %s", len(res.tracer.spans), path)
	}
	return printResult(res, probe.finish(commit()))
}

func printResult(res *result, env envRecord) error {
	for _, l := range res.log {
		fmt.Println("#", l)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("%-26s %14.6g %-6s %s\n", name, m.Value, m.Unit, res.notes[name])
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
