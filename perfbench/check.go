package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"fairbench/internal/experiments"
)

// rowDigests hashes the non-timing fields of every output row, in order.
// Seconds and Overhead are wall-clock and vary run to run; every other
// field is bit-deterministic for a fixed spec on one architecture.
func rowDigests(out *experiments.Output) ([]string, error) {
	var rows []any
	switch {
	case out.Sensitivity != nil:
		for _, r := range out.Sensitivity {
			r.Row.Seconds, r.Row.Overhead = 0, 0
			rows = append(rows, r)
		}
	case out.Rows != nil:
		for _, r := range out.Rows {
			r.Seconds, r.Overhead = 0, 0
			rows = append(rows, r)
		}
	default:
		return nil, fmt.Errorf("digest: %s output has no rows", out.Experiment)
	}
	digests := make([]string, len(rows))
	for i, r := range rows {
		data, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("digest: row %d: %w", i, err)
		}
		sum := sha256.Sum256(data)
		digests[i] = hex.EncodeToString(sum[:8])
	}
	return digests, nil
}

// gridDigest folds row digests into one digest for the whole output.
func gridDigest(rows []string) string {
	sum := sha256.Sum256([]byte(strings.Join(rows, ",")))
	return hex.EncodeToString(sum[:8])
}

// mismatchedRows returns the indices of rows whose digest differs from
// the reference (every index when the row counts differ).
func mismatchedRows(got, want []string) []int {
	var bad []int
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad = append(bad, i)
		}
	}
	for i := len(want); i < len(got); i++ {
		bad = append(bad, i)
	}
	return bad
}

// stripTiming drops the wall-clock column from a rendered table: on
// every line with the header's field count, the last field (the
// overhead(s) column, always last) is removed, and runs of spaces are
// collapsed so column padding cannot differ.
func stripTiming(table string) string {
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	header := -1
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) > 0 && f[len(f)-1] == "overhead(s)" {
			header = len(f)
			break
		}
	}
	for i, l := range lines {
		f := strings.Fields(l)
		if header > 0 && len(f) == header {
			f = f[:len(f)-1]
		}
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests are whole-grid digests recorded with the benchmark,
// per workload and --seed, at the grid size and architecture named in
// the file. They catch a change that alters results consistently, which
// comparing a run's grids with each other cannot.
type recordedDigests struct {
	Arch    string                       `json:"arch"`
	N       int                          `json:"n"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadRecorded() (recordedDigests, error) {
	var r recordedDigests
	if err := json.Unmarshal(digestsJSON, &r); err != nil {
		return r, fmt.Errorf("digests.json: %w", err)
	}
	return r, nil
}
