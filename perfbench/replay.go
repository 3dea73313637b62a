package main

import (
	"fmt"
	"strings"
	"time"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/experiments"
	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// replayCell is one grid cell, rebuilt from the spec the way the
// experiments package builds it, so it can be run serially through
// public functions with a span around each call.
type replayCell struct {
	approach, model string // model is "" where the approach's default applies
	seed            int64
	train, test     *dataset.Dataset
	graph           *causal.Graph
	// prepare marks the first cell of a batch: the replay arms the
	// shared split's caches there, as the runner's batch prepare does.
	prepare bool
}

// replayPlan lists a grid's cells in index order, plus the opened grid
// whose post-pass assembles them.
type replayPlan struct {
	grid  *experiments.Grid
	cells []replayCell
}

func sourceOf(ns experiments.Spec) (*synth.Source, error) {
	switch ns.Dataset {
	case "adult":
		return synth.Adult(ns.N, ns.Seed), nil
	case "compas":
		return synth.COMPAS(ns.N, ns.Seed), nil
	case "german":
		return synth.German(ns.N, ns.Seed), nil
	}
	return nil, fmt.Errorf("replay: unknown dataset %q", ns.Dataset)
}

// planReplay rebuilds the cells of a fig10, fig7 or cv grid.
func planReplay(spec experiments.Spec) (*replayPlan, error) {
	g, err := experiments.Open(spec)
	if err != nil {
		return nil, err
	}
	ns := g.Spec()
	if ns.Bias != "" {
		return nil, fmt.Errorf("replay: biased grids are not replayed")
	}
	src, err := sourceOf(ns)
	if err != nil {
		return nil, err
	}
	p := &replayPlan{grid: g}
	switch ns.Experiment {
	case "fig10":
		names := ns.Names
		if names == nil {
			names = experiments.DefaultSensitivityApproaches
		}
		train, test := src.Data.Split(0.7, rng.New(ns.Seed))
		for _, model := range experiments.ModelNames {
			for _, name := range names {
				p.cells = append(p.cells, replayCell{approach: name, model: model, seed: ns.Seed,
					train: train, test: test, graph: src.Graph, prepare: len(p.cells) == 0})
			}
		}
	case "fig7":
		train, test := src.Data.Split(0.7, rng.New(ns.Seed))
		for _, name := range append([]string{"LR"}, registry.Names...) {
			p.cells = append(p.cells, replayCell{approach: name, seed: ns.Seed,
				train: train, test: test, graph: src.Graph, prepare: len(p.cells) == 0})
		}
	case "cv":
		names := append([]string{"LR"}, registry.Names...)
		for fi, fold := range src.Data.KFold(ns.K, rng.New(ns.Seed)) {
			for ni, name := range names {
				p.cells = append(p.cells, replayCell{approach: name, seed: ns.Seed + int64(fi),
					train: fold.Train, test: fold.Test, graph: src.Graph, prepare: ni == 0})
			}
		}
	default:
		return nil, fmt.Errorf("replay: experiment %q is not replayed", ns.Experiment)
	}
	if len(p.cells) != g.Len() {
		return nil, fmt.Errorf("replay: rebuilt %d cells, grid has %d", len(p.cells), g.Len())
	}
	return p, nil
}

// run evaluates every cell serially in Evaluate's order (build, Fit,
// Predict, then each metric function), recording one span per call with
// the cell index as trace id, and assembles the grid's output.
func (p *replayPlan) run(t *tracer) (*experiments.Output, error) {
	cells := make([]experiments.Cell, len(p.cells))
	for i, c := range p.cells {
		row, err := p.evalCell(t, i, c)
		if err != nil {
			return nil, err
		}
		cells[i] = experiments.Cell{Index: i, Row: &row}
		if c.model != "" {
			cells[i] = experiments.Cell{Index: i, Sens: &experiments.SensitivityRow{
				Approach: c.approach, Model: c.model, Row: row}}
		}
	}
	return p.grid.Assemble(cells)
}

func (p *replayPlan) evalCell(t *tracer, i int, c replayCell) (experiments.Row, error) {
	attrs := map[string]string{"approach": c.approach}
	if c.model != "" {
		attrs["model"] = c.model
	}
	root := t.begin("cell", i, -1, attrs)
	defer t.end(root)
	call := func(name string, f func()) {
		s := t.begin(name, i, root, nil)
		f()
		t.end(s)
	}
	if c.prepare {
		call("batch.prepare", func() {
			c.train.EnableDesignCache()
			c.train.EnableBatchCache()
		})
	}
	var (
		a   fair.Approach
		err error
	)
	call("build", func() {
		cfg := registry.Config{Graph: c.graph, Seed: c.seed}
		if c.model != "" {
			cfg.Factory = experiments.ModelFactory(c.model)
		}
		a, err = registry.New(c.approach, cfg)
	})
	if err != nil {
		return experiments.Row{}, err
	}
	attrs["stage"] = a.Stage().String()
	start := time.Now()
	call("fit", func() { err = a.Fit(c.train) })
	if err != nil {
		return experiments.Row{}, fmt.Errorf("%s: %w", a.Name(), err)
	}
	var yhat []int
	call("predict", func() { yhat, err = a.Predict(c.test) })
	if err != nil {
		return experiments.Row{}, fmt.Errorf("%s: %w", a.Name(), err)
	}
	elapsed := time.Since(start).Seconds()
	var raw metrics.Fairness
	call("metrics.rates", func() {
		gr := metrics.ComputeGroupRates(c.test, yhat)
		raw.DI, raw.TPRB, raw.TNRB = gr.DI(), gr.TPR[1]-gr.TPR[0], gr.TNR[1]-gr.TNR[0]
	})
	call("metrics.id", func() { raw.ID = metrics.IndividualDiscrimination(c.test, a) })
	if c.graph != nil {
		call("metrics.te", func() {
			eff := metrics.TotalEffect(c.test, c.graph, yhat, 4)
			raw.TE, raw.NDE, raw.NIE = eff.TE, eff.NDE, eff.NIE
		})
	}
	var row experiments.Row
	call("metrics.correctness", func() {
		row = experiments.Row{
			Approach: a.Name(),
			Stage:    a.Stage().String(),
			Targets:  a.Targets(),
			Correct:  metrics.ComputeCorrectness(c.test.Y, yhat),
			Fair:     metrics.Normalize(raw),
			Seconds:  elapsed,
		}
	})
	return row, nil
}

// cellGroups names the per-layer metrics a call span of a cell with the
// given attributes adds to: fit and predict time by downstream model
// (sensitivity grids only, where the cell names one), and fit time by
// pipeline stage (the baseline LR separately) and by the Adam-heavy and
// sampling approach families.
func cellGroups(call string, attrs map[string]string) []string {
	if call != "fit" && call != "predict" {
		return nil
	}
	var out []string
	if m := attrs["model"]; m != "" {
		out = append(out, call+"_s."+strings.ToLower(m))
	}
	if call == "predict" {
		return out
	}
	name := attrs["approach"]
	if name == "LR" {
		return append(out, "fit_s.baseline")
	}
	out = append(out, "fit_s."+attrs["stage"])
	for _, fam := range []string{"Zafar", "Kearns", "Thomas", "Celis", "KamCal"} {
		if strings.HasPrefix(name, fam) {
			out = append(out, "fit_s."+strings.ToLower(fam))
		}
	}
	return out
}

// layerTotals sums the self times, in seconds, of the spans recorded
// from index from on into per-layer metrics: the grouped fit/predict
// metrics plus the three fairness-metric layers. cellTotal is the summed
// duration of the root (cell) spans.
func layerTotals(t *tracer, from int) (totals map[string]float64, cellTotal float64) {
	self := t.selfTimes()
	totals = map[string]float64{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Parent < 0 {
			cellTotal += (s.End - s.Start).Seconds()
			continue
		}
		secs := self[i].Seconds()
		switch s.Name {
		case "metrics.id", "metrics.te", "metrics.rates":
			totals[s.Name+"_s"] += secs
		}
		for _, m := range cellGroups(s.Name, t.spans[s.Parent].Attrs) {
			totals[m] += secs
		}
	}
	return totals, cellTotal
}
