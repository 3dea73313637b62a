// output.go renders grid results (experiments.Output) as tables. The
// CLI's figure, merge, dispatch and sched commands and the serve
// daemon's /runs/{id}/table endpoint share this one renderer, so the
// byte-identical-to-serial guarantee covers HTTP responses too.
package report

import (
	"fmt"
	"io"
	"sort"

	"fairbench/internal/experiments"
)

// RenderOutput writes a grid result as its tables. Every path that
// prints a grid — the figure commands, merge, the subprocess pool, and
// the serve daemon — renders through here, so their output is
// byte-identical, titles included.
func RenderOutput(w io.Writer, out *experiments.Output) error {
	spec := out.Spec
	on := subject(spec)
	switch out.Experiment {
	case "fig7":
		return RowsTable("Figure 7 — correctness & fairness on "+on, out.Rows).Render(w)
	case "fig15":
		return RowsTable("Figure 15 — appendix extensions on "+on, out.Rows).Render(w)
	case "cv":
		return RowsTable(fmt.Sprintf("Figures 16-18 — %d-fold cross validation on %s", spec.K, on), out.Rows).Render(w)
	case "fig9":
		for i, res := range out.Robustness {
			if i > 0 {
				fmt.Fprintln(w)
			}
			title := fmt.Sprintf("Figure 9 — robustness to %s on %s", res.Template, on)
			if err := RowsTable(title, res.Rows).Render(w); err != nil {
				return err
			}
		}
		return nil
	case "fig10":
		return renderSensitivity(w, out.Sensitivity, on)
	case "fig22":
		return renderStability(w, out.Stability, spec.Runs, on)
	case "fig23":
		return renderEfficiency(w, out.Efficiency, spec.Sizes, on)
	case "fig8rows":
		return scalabilityTable("Figure 8(a-c) — runtime overhead vs #data points on "+on, "points", out.Scalability).Render(w)
	case "fig8attrs":
		return scalabilityTable("Figure 8(d-f) — runtime overhead vs #attributes on "+on, "attrs", out.Scalability).Render(w)
	default:
		return fmt.Errorf("render: unknown experiment %q", out.Experiment)
	}
}

// subject names what a grid ran on for its table titles: the dataset,
// suffixed with the bias-injection setting when the spec carries one
// (so a biased grid can never be mistaken for a clean one), the size
// cap, and the seed.
func subject(spec experiments.Spec) string {
	ds := spec.Dataset
	if b := spec.BiasLabelText(); b != "" {
		ds += " [" + b + "]"
	}
	n := "paper size"
	if spec.N > 0 {
		n = fmt.Sprintf("n=%d", spec.N)
	}
	return fmt.Sprintf("%s (%s, seed %d)", ds, n, spec.Seed)
}

// RenderDeltas writes Figure 9's per-template degradation tables: each
// approach's accuracy and target-fairness drop from clean training (the
// rows of the fig7 grid on the same data) to training on the template's
// corrupted data.
func RenderDeltas(w io.Writer, clean []experiments.Row, robustness []experiments.RobustnessResult) error {
	for i, res := range robustness {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t := &Table{
			Title:   fmt.Sprintf("Δ vs clean training (%s)", res.Template),
			Headers: []string{"approach", "accuracy drop", "target-fairness drop"},
		}
		for _, d := range experiments.Deltas(clean, res) {
			t.Add(d.Approach, F(d.AccuracyDrop), F(d.TargetFairDrop))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RowsTable lays out per-approach correctness/fairness rows — the
// paper's core table shape (Figures 7, 15-18).
func RowsTable(title string, rows []experiments.Row) *Table {
	t := &Table{
		Title: title,
		Headers: []string{"approach", "stage", "acc", "prec", "rec", "f1",
			"DI*", "1-|TPRB|", "1-|TNRB|", "1-ID", "1-|TE|", "1-|NDE|", "1-|NIE|", "overhead(s)"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Stage,
			F(r.Correct.Accuracy), F(r.Correct.Precision),
			F(r.Correct.Recall), F(r.Correct.F1),
			F(r.Fair.DIStar), F(r.Fair.TPRB), F(r.Fair.TNRB),
			F(r.Fair.ID), F(r.Fair.TE), F(r.Fair.NDE),
			F(r.Fair.NIE), F(r.Overhead))
	}
	return t
}

// scalabilityTable lays out Figure 8's overhead-vs-x series, one row
// per approach, one column per x value.
func scalabilityTable(title, xlabel string, series map[string][]experiments.ScalabilityPoint) *Table {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	var xs []int
	if len(names) > 0 {
		for _, p := range series[names[0]] {
			xs = append(xs, p.X)
		}
	}
	headers := []string{"approach"}
	for _, x := range xs {
		headers = append(headers, fmt.Sprintf("%s=%d", xlabel, x))
	}
	t := &Table{Title: title, Headers: headers}
	for _, n := range names {
		cells := []string{n}
		for _, p := range series[n] {
			cells = append(cells, fmt.Sprintf("%.3fs", p.Overhead))
		}
		t.Add(cells...)
	}
	return t
}

// renderSensitivity writes Figure 10/21's model-sensitivity table plus
// the per-approach spread summary.
func renderSensitivity(w io.Writer, rows []experiments.SensitivityRow, on string) error {
	t := &Table{
		Title:   "Figure 10/21 — model sensitivity on " + on,
		Headers: []string{"approach", "model", "acc", "DI*", "1-|TE|"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Model, F(r.Row.Correct.Accuracy),
			F(r.Row.Fair.DIStar), F(r.Row.Fair.TE))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	st := &Table{
		Title:   "Per-approach spread across models (pre varies, post stays flat)",
		Headers: []string{"approach", "stage", "acc spread", "DI* spread"},
	}
	for _, s := range experiments.Spreads(rows) {
		st.Add(s.Approach, s.Stage, F(s.AccSpread), F(s.DISpread))
	}
	fmt.Fprintln(w)
	return st.Render(w)
}

// renderStability writes Figure 22's mean±std stability table.
func renderStability(w io.Writer, rows []experiments.StabilityRow, runs int, on string) error {
	t := &Table{
		Title:   fmt.Sprintf("Figure 22 — stability over %d random folds on %s", runs, on),
		Headers: []string{"approach", "stage", "acc mean±std", "DI* mean±std", "1-|TPRB| mean±std", "f1 mean±std"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Stage,
			fmt.Sprintf("%.3f±%.3f", r.AccMean, r.AccStd),
			fmt.Sprintf("%.3f±%.3f", r.DIMean, r.DIStd),
			fmt.Sprintf("%.3f±%.3f", r.TPRBMean, r.TPRBStd),
			fmt.Sprintf("%.3f±%.3f", r.F1Mean, r.F1Std))
	}
	return t.Render(w)
}

// renderEfficiency writes Figure 23's accuracy-by-training-size and
// DI*-by-training-size tables.
func renderEfficiency(w io.Writer, series map[string][]experiments.EfficiencyPoint, sizes []int, on string) error {
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	headers := []string{"approach"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("acc@%d", s))
	}
	t := &Table{Title: "Figure 23 — accuracy by training size on " + on, Headers: headers}
	for _, name := range names {
		cells := []string{name}
		for _, p := range series[name] {
			cells = append(cells, F(p.Row.Correct.Accuracy))
		}
		t.Add(cells...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := &Table{Title: "Figure 23 — DI* by training size", Headers: headers}
	for _, name := range names {
		cells := []string{name}
		for _, p := range series[name] {
			cells = append(cells, F(p.Row.Fair.DIStar))
		}
		t2.Add(cells...)
	}
	fmt.Fprintln(w)
	return t2.Render(w)
}
