package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fairbench/internal/engine"
	"fairbench/internal/experiments"
)

// rowBytes encodes a metric grid's rows with the wall-clock fields
// zeroed: the bytes every execution path must agree on.
func rowBytes(t *testing.T, out *experiments.Output) []byte {
	t.Helper()
	rows := append([]experiments.Row(nil), out.Rows...)
	for i := range rows {
		rows[i].Seconds, rows[i].Overhead = 0, 0
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func runInproc(t *testing.T, spec experiments.Spec, opts engine.RunOptions) (*experiments.Output, *engine.Report) {
	t.Helper()
	opts.Backend = engine.BackendInproc
	out, rep, err := engine.New(engine.RunOptions{}).Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// TestDriversConsultDefaultCache pins the cache a figure command gets
// from its -cache flag: an in-process engine run with CacheDir computes
// every cell once, a warm re-run is served entirely from the store, and
// both print rows byte-equal to an uncached run. A run with another
// seed shares nothing with the warm store.
func TestDriversConsultDefaultCache(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	uncached, _ := runInproc(t, spec, engine.RunOptions{})

	dir := t.TempDir()
	cold, coldRep := runInproc(t, spec, engine.RunOptions{CacheDir: dir})
	if coldRep.CellsComputed != g.Len() || coldRep.CacheStats.Writes == 0 {
		t.Fatalf("cold run: computed %d of %d cells, %d writes", coldRep.CellsComputed, g.Len(), coldRep.CacheStats.Writes)
	}
	warm, warmRep := runInproc(t, spec, engine.RunOptions{CacheDir: dir})
	if warmRep.CellsComputed != 0 || warmRep.CellsCached != g.Len() {
		t.Fatalf("warm run: computed=%d cached=%d, want 0 and %d", warmRep.CellsComputed, warmRep.CellsCached, g.Len())
	}
	want := rowBytes(t, uncached)
	for name, out := range map[string]*experiments.Output{"cold": cold, "warm": warm} {
		if !bytes.Equal(want, rowBytes(t, out)) {
			t.Fatalf("%s cached rows diverge from uncached", name)
		}
	}

	other := spec
	other.Seed = 99
	if _, rep := runInproc(t, other, engine.RunOptions{CacheDir: dir}); rep.CellsCached != 0 {
		t.Fatalf("a different seed was served %d cells from the cache", rep.CellsCached)
	}
}

// TestDriverMatchesSpecPath pins the figure commands' path to the grid
// itself: an in-process engine run on a worker pool produces the rows a
// forced-serial RunAll of the same spec does.
func TestDriverMatchesSpecPath(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 240, Seed: 7}
	viaEngine, _ := runInproc(t, spec, engine.RunOptions{Parallelism: 4})
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	g.SetWorkers(1)
	serial, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rowBytes(t, serial), rowBytes(t, viaEngine)) {
		t.Fatal("engine run diverges from the serial grid")
	}
}
