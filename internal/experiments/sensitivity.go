package experiments

import (
	"fmt"

	"fairbench/internal/classifier"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// ModelNames lists the five model families of the model-sensitivity
// experiment (Section 4.5, Appendix F).
var ModelNames = []string{"LR", "SVM", "kNN", "RF", "MLP"}

// ModelFactory returns the classifier factory for one model-family name
// with the paper's hyper-parameters.
func ModelFactory(name string) classifier.Factory {
	switch name {
	case "SVM":
		return func() classifier.Classifier { return classifier.NewSVM() }
	case "kNN":
		return func() classifier.Classifier { return classifier.NewKNN() }
	case "RF":
		return func() classifier.Classifier { return classifier.NewForest() }
	case "MLP":
		return func() classifier.Classifier { return classifier.NewMLP() }
	default:
		return func() classifier.Classifier { return classifier.NewLogistic() }
	}
}

// SensitivityRow is one (approach, model) evaluation.
type SensitivityRow struct {
	Approach, Model string
	Row             Row
}

// sensitivityGrid builds Figure 10 / Figure 21: each pre- and
// post-processing approach paired with each of the five model families
// (in-processing approaches are excluded because their mechanism is
// welded to their own learner). Each cell builds its own classifier
// factory so no state crosses goroutines or processes.
func sensitivityGrid(src *synth.Source, approaches []string, seed int64) *Grid {
	if approaches == nil {
		approaches = DefaultSensitivityApproaches
	}
	train, test := src.Data.Split(0.7, rng.New(seed))
	return &Grid{
		kind: kindSens, graph: src.Graph, seed: seed,
		slices: []splitPair{{train, test}},
		models: ModelNames, names: approaches,
		assemble: func(g *Grid, cells []Cell) (*Output, error) {
			rows := make([]SensitivityRow, len(cells))
			for i := range cells {
				if cells[i].Sens == nil {
					return nil, fmt.Errorf("experiments: cell %d has no sensitivity payload", i)
				}
				rows[i] = *cells[i].Sens
			}
			return &Output{Sensitivity: rows}, nil
		},
	}
}

// SensitivitySpread summarizes, per approach, the spread (max - min) of
// accuracy and DI* across models — the quantity the paper's finding keys
// on: large for pre-processing, small for post-processing.
type SensitivitySpread struct {
	Approach              string
	Stage                 string
	AccSpread, DISpread   float64
	AccByModel, DIByModel map[string]float64
}

// Spreads aggregates model-sensitivity rows.
func Spreads(rows []SensitivityRow) []SensitivitySpread {
	order := []string{}
	agg := map[string]*SensitivitySpread{}
	for _, r := range rows {
		s := agg[r.Approach]
		if s == nil {
			s = &SensitivitySpread{
				Approach:   r.Approach,
				Stage:      r.Row.Stage,
				AccByModel: map[string]float64{},
				DIByModel:  map[string]float64{},
			}
			agg[r.Approach] = s
			order = append(order, r.Approach)
		}
		s.AccByModel[r.Model] = r.Row.Correct.Accuracy
		s.DIByModel[r.Model] = r.Row.Fair.DIStar
	}
	var out []SensitivitySpread
	for _, name := range order {
		s := agg[name]
		s.AccSpread = spread(s.AccByModel)
		s.DISpread = spread(s.DIByModel)
		out = append(out, *s)
	}
	return out
}

func spread(m map[string]float64) float64 {
	first := true
	var lo, hi float64
	for _, v := range m {
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
