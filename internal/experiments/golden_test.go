package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden testdata files")

// TestGoldenRowsCOMPAS pins every metric of the Figure 7 driver on a
// small COMPAS slice at seed 42 to a checked-in file, byte for byte. Any
// refactor that silently shifts a numeric result — a reordered float
// summation, a changed RNG derivation, an off-by-one in a split — fails
// here with a precise diff, which is the guard the sharding layer (and
// every future layer) builds on: fairness conclusions are only as
// reproducible as these rows.
//
// Timing fields are zeroed before comparison; they are the one sanctioned
// nondeterminism. The pinned floats assume Go's default strict float64
// semantics on the CI architecture (amd64, no FMA contraction); if CI
// ever changes architecture, regenerate with -update and review the diff.
// goldenSpec is the pinned grid: Figure 7 on 300 COMPAS tuples, seed 42.
var goldenSpec = Spec{Experiment: "fig7", Dataset: "compas", N: 300, Seed: 42}

func TestGoldenRowsCOMPAS(t *testing.T) {
	rows := runAll(t, mustOpen(t, goldenSpec)).Rows
	for i := range rows {
		rows[i].Seconds, rows[i].Overhead = 0, 0
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_compas_seed42.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", path, len(rows))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden rows drifted from %s — a numeric result changed.\n"+
			"If the change is intended, regenerate with -update and justify the diff in review.\n%s",
			path, goldenDiff(want, got))
	}
}

// TestGoldenRowsStableAcrossParallelism re-derives the golden rows once
// forced serial and once on a multi-worker pool; together with
// TestGoldenRowsCOMPAS this pins the golden file to both execution
// modes, not just to whichever one the test harness happens to use.
func TestGoldenRowsStableAcrossParallelism(t *testing.T) {
	serial, pooled := mustOpen(t, goldenSpec), mustOpen(t, goldenSpec)
	serial.SetWorkers(1)
	pooled.SetWorkers(4)
	a, b := runAll(t, serial).Rows, runAll(t, pooled).Rows
	for i := range a {
		if a[i].Correct != b[i].Correct || a[i].Fair != b[i].Fair {
			t.Fatalf("%s: repeated run diverges", a[i].Approach)
		}
	}
}

// goldenDiff reports the first line where the encodings diverge.
func goldenDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("one encoding is a prefix of the other (lengths %d vs %d)", len(want), len(got))
}
