package report

import (
	"bytes"
	"strings"
	"testing"

	"fairbench/internal/experiments"
)

func sample() *Table {
	t := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	t.Add("alpha", F(0.12345))
	t.Add("a-much-longer-name", F2(0.678))
	return t
}

func TestRender(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "0.123") || !strings.Contains(out, "0.68") {
		t.Fatalf("render output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("line count: %d\n%s", len(lines), out)
	}
	// Column alignment: the value column starts at the same offset on all
	// data lines.
	h := strings.Index(lines[1], "value")
	if h < 0 {
		t.Fatal("no value header")
	}
	if lines[3][h-2:h] != "  " && lines[4][h-2:h] != "  " {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %d", len(lines))
	}
	if lines[0] != "name,value" {
		t.Fatalf("csv header: %q", lines[0])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.0/3) != "0.333" {
		t.Fatalf("F: %q", F(1.0/3))
	}
	if F2(1.0/3) != "0.33" {
		t.Fatalf("F2: %q", F2(1.0/3))
	}
}

// TestRenderOutputTitles pins the one title every path prints for a
// grid: dataset label (bias setting included), size cap and seed.
func TestRenderOutputTitles(t *testing.T) {
	for _, tc := range []struct {
		spec experiments.Spec
		want string
	}{
		{experiments.Spec{Experiment: "fig7", Dataset: "german", N: 240, Seed: 7},
			"Figure 7 — correctness & fairness on german (n=240, seed 7)"},
		{experiments.Spec{Experiment: "cv", Dataset: "adult", K: 5, Seed: 1},
			"Figures 16-18 — 5-fold cross validation on adult (paper size, seed 1)"},
		{experiments.Spec{Experiment: "fig7", Dataset: "compas", N: 300, Seed: 2, Bias: experiments.BiasLabel, BiasRate: 0.2},
			"Figure 7 — correctness & fairness on compas [label bias ν=0.2] (n=300, seed 2)"},
	} {
		var buf bytes.Buffer
		out := &experiments.Output{Experiment: tc.spec.Experiment, Spec: tc.spec}
		if err := RenderOutput(&buf, out); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := strings.Cut(buf.String(), "\n"); got != tc.want {
			t.Errorf("title %q, want %q", got, tc.want)
		}
	}
}
