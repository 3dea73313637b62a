package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// runSeconds is how long one run measures; BENCHMARK.json records it so
// every invocation of the benchmark uses the same run length.
const runSeconds = 20

// Workload names.
const (
	wlSens  = "fig10-sens"
	wlCV    = "cv-adam"
	wlServe = "serve"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads are the benchmark's inputs. The two grid workloads stress
// disjoint kernels (each is the bypass case for the other's), and serve
// stresses orchestration and the result store instead of model fitting.
var workloads = []workloadDef{
	{wlSens, "fig10 Adult grid: decision trees, MLP and kNN kernels plus fairness metrics do the work; the bypass case for Adam"},
	{wlCV, "5-fold cv Adult grid: Adam logistic fits (Zafar, baseline) do the work; kNN and RF absent, metrics small"},
	{wlServe, "serve daemon over HTTP: cold grids run in spawned workers, warm grids come from the verified store"},
}

// metricDef declares one reported metric and the workloads that report it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// In lists the workloads that exercise the metric's layer.
	In []string
}

var (
	allWL   = []string{wlSens, wlCV, wlServe}
	gridWL  = []string{wlSens, wlCV}
	sensWL  = []string{wlSens}
	cvSrvWL = []string{wlCV, wlServe}
	srvWL   = []string{wlServe}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them, so each is
// defined on the workload's own operation: a whole grid through Run
// (fig10-sens, cv-adam) or a serve round of one cold and five warm
// requests (serve). No metric is a function of another: there is no
// throughput metric, because with a fixed cell count cells/s is
// 1/op_ms and with one closed-loop client req/s is 1/mean latency.
//
// The timing bounds sit at the 0.25 cap because the 2-CPU VM this was
// built on changes speed by up to a third within minutes: ten runs of
// one workload spread 8-20% (quartile distance over median) in every
// timing metric, and the same grid's CPU time differs by 30% between
// two runs minutes apart. The RSS percentile spreads under 7%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, allWL},
	{"op_ms", "ms", "lower", 0.25, allWL},
	{"cpu_ms_per_cell", "ms", "lower", 0.25, allWL},
	{"rss_p90_mb", "MB", "lower", 0.15, allWL},
}

// perLayer are the traced run's metrics, each named after the module
// whose public functions it times (see README.md for which end-to-end
// metric each should move). In lists the workloads whose computation
// goes through the layer; every traced run reports every metric, and a
// layer its workload does not go through reads 0.
var perLayer = []metricDef{
	{Name: "synth.materialize_ms", Unit: "ms", Better: "lower", In: allWL},
	{Name: "experiments.open_ms", Unit: "ms", Better: "lower", In: allWL},
	{Name: "fit_s.lr", Unit: "s", Better: "lower", In: sensWL},
	{Name: "fit_s.svm", Unit: "s", Better: "lower", In: sensWL},
	{Name: "fit_s.knn", Unit: "s", Better: "lower", In: sensWL},
	{Name: "fit_s.rf", Unit: "s", Better: "lower", In: sensWL},
	{Name: "fit_s.mlp", Unit: "s", Better: "lower", In: sensWL},
	{Name: "predict_s.lr", Unit: "s", Better: "lower", In: sensWL},
	{Name: "predict_s.svm", Unit: "s", Better: "lower", In: sensWL},
	{Name: "predict_s.knn", Unit: "s", Better: "lower", In: sensWL},
	{Name: "predict_s.rf", Unit: "s", Better: "lower", In: sensWL},
	{Name: "predict_s.mlp", Unit: "s", Better: "lower", In: sensWL},
	{Name: "fit_s.baseline", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.pre", Unit: "s", Better: "lower", In: allWL},
	{Name: "fit_s.in", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.post", Unit: "s", Better: "lower", In: allWL},
	{Name: "fit_s.zafar", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.kearns", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.thomas", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.celis", Unit: "s", Better: "lower", In: cvSrvWL},
	{Name: "fit_s.kamcal", Unit: "s", Better: "lower", In: allWL},
	{Name: "metrics.id_s", Unit: "s", Better: "lower", In: allWL},
	{Name: "metrics.te_s", Unit: "s", Better: "lower", In: allWL},
	{Name: "metrics.rates_s", Unit: "s", Better: "lower", In: allWL},
	{Name: "runner.idle_frac", Unit: "frac", Better: "lower", In: gridWL},
	{Name: "gc.cpu_frac", Unit: "frac", Better: "lower", In: allWL},
	{Name: "alloc_mb_per_cell", Unit: "MB", Better: "lower", In: allWL},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "serve.exec_ms.warm", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "serve.exec_ms.cold", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "serve.table_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "store.get_us", Unit: "us", Better: "lower", In: srvWL},
	{Name: "store.put_us", Unit: "us", Better: "lower", In: srvWL},
	{Name: "store.hit_ratio", Unit: "frac", Better: "higher", In: srvWL},
	{Name: "store.rejected", Unit: "count", Better: "lower", In: srvWL},
	{Name: "engine.cache_serve_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "dispatch.spawns_per_cold", Unit: "count", Better: "lower", In: srvWL},
	{Name: "dispatch.spawns_per_warm", Unit: "count", Better: "lower", In: srvWL},
	{Name: "dispatch.worker_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "dispatch.coord_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "dispatch.worker_rss_mb", Unit: "MB", Better: "lower", In: srvWL},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower", In: srvWL},
	{Name: "report.render_ms", Unit: "ms", Better: "lower", In: allWL},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", In: allWL},
}

// metricsFor returns the metrics every workload reports in one mode.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// exercises reports whether a workload's computation goes through the
// layer a metric measures.
func (d metricDef) exercises(workload string) bool {
	for _, w := range d.In {
		if w == workload {
			return true
		}
	}
	return false
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the program cannot disagree on a name, unit or bound.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("encoding BENCHMARK.json: %w", err)
	}
	return buf.Bytes(), nil
}
