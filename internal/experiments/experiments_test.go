package experiments

import (
	"math"
	"testing"

	"fairbench/internal/corrupt"
	"fairbench/internal/synth"
)

func TestCorrectnessFairnessShape(t *testing.T) {
	rows := runAll(t, fig7Grid(synth.COMPAS(1200, 1), 1)).Rows
	if len(rows) != 19 { // LR + 18 variants
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Approach != "LR" || rows[0].Overhead != 0 {
		t.Fatalf("baseline row: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Correct.Accuracy < 0.3 || r.Correct.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v implausible", r.Approach, r.Correct.Accuracy)
		}
		for _, v := range []float64{r.Fair.DIStar, r.Fair.TPRB, r.Fair.TNRB, r.Fair.ID, r.Fair.TE} {
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("%s: fairness score out of [0,1]: %v", r.Approach, v)
			}
		}
	}
}

func TestEveryApproachImprovesItsTarget(t *testing.T) {
	// The paper's core Figure 7 claim: every approach improves the metric
	// it targets relative to the fairness-unaware baseline (allowing a
	// small sampling slack).
	rows := runAll(t, fig7Grid(synth.COMPAS(3000, 2), 3)).Rows
	base := rows[0]
	for _, r := range rows[1:] {
		if len(r.Targets) == 0 {
			continue
		}
		got := targetScore(r)
		baseRow := base
		baseRow.Targets = r.Targets
		want := targetScore(baseRow)
		if got < want-0.05 {
			t.Errorf("%s: targeted metric %s = %.3f below baseline %.3f",
				r.Approach, r.Targets[0], got, want)
		}
	}
}

func TestScalabilityRows(t *testing.T) {
	series := runAll(t, scaleRowsGrid(synth.COMPAS(1500, 1), []int{300, 800}, []string{"KamCal-DP", "Hardt-EO"}, 1)).Scalability
	for name, pts := range series {
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		for _, p := range pts {
			if p.Overhead < 0 {
				t.Fatalf("%s: negative overhead", name)
			}
		}
	}
}

func TestScalabilityAttrs(t *testing.T) {
	series := runAll(t, scaleAttrsGrid(synth.Adult(1200, 1), []int{2, 5}, []string{"Feld-DP"}, 1000, 1)).Scalability
	if len(series["Feld-DP"]) != 2 {
		t.Fatalf("points: %d", len(series["Feld-DP"]))
	}
}

func TestRobustness(t *testing.T) {
	src := synth.COMPAS(1500, 1)
	g, err := robustnessGrid(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(t, g).Robustness
	if len(results) != 3 {
		t.Fatalf("templates: %d", len(results))
	}
	clean := runAll(t, fig7Grid(src, 1)).Rows
	for _, res := range results {
		if res.Template < corrupt.T1 || res.Template > corrupt.T3 {
			t.Fatalf("template: %v", res.Template)
		}
		deltas := Deltas(clean, res)
		if len(deltas) != len(res.Rows) {
			t.Fatalf("deltas: %d vs %d rows", len(deltas), len(res.Rows))
		}
	}
}

func TestModelSensitivitySpreads(t *testing.T) {
	rows := runAll(t, sensitivityGrid(synth.Adult(1200, 1), []string{"Feld-DP", "KamKar-DP"}, 1)).Sensitivity
	if len(rows) != 2*len(ModelNames) {
		t.Fatalf("rows: %d", len(rows))
	}
	spreads := Spreads(rows)
	if len(spreads) != 2 {
		t.Fatalf("spreads: %d", len(spreads))
	}
	for _, s := range spreads {
		if s.AccSpread < 0 || s.DISpread < 0 {
			t.Fatalf("negative spread: %+v", s)
		}
		if len(s.AccByModel) != len(ModelNames) {
			t.Fatalf("models covered: %d", len(s.AccByModel))
		}
	}
}

func TestCrossValidate(t *testing.T) {
	g, err := cvGrid(synth.German(600, 1), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := runAll(t, g).Rows
	if len(rows) != 19 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Correct.Accuracy <= 0 || r.Correct.Accuracy > 1 {
			t.Fatalf("%s: CV accuracy %v", r.Approach, r.Correct.Accuracy)
		}
	}
}

func TestStability(t *testing.T) {
	rows := runAll(t, stabilityGrid(synth.COMPAS(900, 1), 3, 1)).Stability
	if len(rows) != 19 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.AccStd < 0 || math.IsNaN(r.AccStd) {
			t.Fatalf("%s: std %v", r.Approach, r.AccStd)
		}
	}
}

func TestDataEfficiency(t *testing.T) {
	series := runAll(t, efficiencyGrid(synth.COMPAS(1500, 1), []int{100, 400}, []string{"LR", "KamCal-DP"}, 1)).Efficiency
	for name, pts := range series {
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		if pts[0].Size != 100 || pts[1].Size != 400 {
			t.Fatalf("%s: sizes %d %d", name, pts[0].Size, pts[1].Size)
		}
	}
}

func TestExtensions(t *testing.T) {
	rows := runAll(t, extensionsGrid(synth.COMPAS(1200, 1), 1)).Rows
	if len(rows) != 4 { // LR + 3 appendix variants
		t.Fatalf("rows: %d", len(rows))
	}
	base := rows[0]
	for _, r := range rows[1:] {
		if len(r.Targets) == 0 {
			continue
		}
		got := targetScore(r)
		baseRow := base
		baseRow.Targets = r.Targets
		if got < targetScore(baseRow)-0.05 {
			t.Errorf("%s: targeted metric below baseline", r.Approach)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	src := synth.COMPAS(800, 1)
	r1 := runAll(t, fig7Grid(src, 5)).Rows
	r2 := runAll(t, fig7Grid(src, 5)).Rows
	for i := range r1 {
		if r1[i].Correct.Accuracy != r2[i].Correct.Accuracy ||
			r1[i].Fair.DIStar != r2[i].Fair.DIStar {
			t.Fatalf("%s: non-deterministic metrics", r1[i].Approach)
		}
	}
}

// runAll runs a grid built straight from a Source — the in-package form
// of the paper's drivers, for tests that pass a custom dataset.
func runAll(t *testing.T, g *Grid) *Output {
	t.Helper()
	out, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}
