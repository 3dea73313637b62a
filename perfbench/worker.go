package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fairbench/internal/dispatch"
)

// workerLogEnv names the directory a traced serve run asks spawned
// workers to record their timing in. Unset, workers record nothing.
const workerLogEnv = "PERFBENCH_WORKER_LOG"

// workerRecord is what one spawned worker reports about itself.
type workerRecord struct {
	Out   string  `json:"out"`
	MS    float64 `json:"ms"`
	RSSMB float64 `json:"rss_mb"`
}

// workerMain is the `worker` subcommand the dispatcher re-execs this
// binary as (dispatch.SelfExec's protocol: -manifest M -shard I -out O).
// It times its call into dispatch.Worker from the outside.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	manifest := fs.String("manifest", "", "manifest file of the dispatch directory")
	shardFlag := fs.String("shard", "", "shard index")
	out := fs.String("out", "", "envelope output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := strconv.Atoi(*shardFlag)
	if err != nil || *manifest == "" || *out == "" {
		return fmt.Errorf("needs -manifest, -shard <index> and -out")
	}
	start := time.Now()
	if err := dispatch.Worker(*manifest, idx, *out); err != nil {
		return err
	}
	dir := os.Getenv(workerLogEnv)
	if dir == "" {
		return nil
	}
	data, err := json.Marshal(workerRecord{Out: *out, MS: msSince(start), RSSMB: peakRSSMB()})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("worker-%d.json", os.Getpid())), data, 0o644)
}

// msSince is the time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
