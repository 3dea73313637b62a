package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail
// percentile, so that the tail is estimated from data and not from a
// single outlier.
const minBeyond = 10

// tail returns the highest integer percentile that has at least
// minBeyond samples beyond it, by nearest rank, and that percentile. With
// too few samples for any percentile from 50 up it returns the maximum
// and 100.
func tail(xs []float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for p := 99; p >= 50; p-- {
		k := int(math.Ceil(float64(p)*float64(n)/100)) - 1
		if n-1-k >= minBeyond {
			return s[k], p
		}
	}
	return s[n-1], 100
}

// tailWindow is the fewest samples one tail estimate is taken from.
const tailWindow = 150

// windowedTail splits samples, in the order they were taken, into as
// many consecutive windows of at least tailWindow samples as there are
// (at least one), takes each window's tail, and returns the median over
// windows, the first window's percentile, and the window count. A single
// tail estimate rests on about minBeyond samples and is noisy; the
// median over windows is not.
func windowedTail(xs []float64) (value float64, pct, windows int) {
	windows = max(1, len(xs)/tailWindow)
	var tails []float64
	for i := 0; i < windows; i++ {
		v, p := tail(xs[i*len(xs)/windows : (i+1)*len(xs)/windows])
		if i == 0 {
			pct = p
		}
		tails = append(tails, v)
	}
	return median(tails), pct, windows
}

// derive maps (seed, stream) to an independent non-negative spec seed
// (a splitmix64 finalizer), so every spec and the request order follow
// from the one --seed argument.
func derive(seed, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 33)
}

// usage is a snapshot of the process's resource accounting.
type usage struct {
	wall time.Time
	// cpu is the user+sys time of this process and of its children that
	// have been waited for (the serve workload's spawned workers).
	cpu time.Duration
	// gcCPU, allCPU and idleCPU are the runtime's CPU-class estimates;
	// allocs is the cumulative heap allocation in bytes.
	gcCPU, allCPU, idleCPU float64
	allocs                 uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func snapshot() usage {
	u := usage{wall: time.Now()}
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		_ = syscall.Getrusage(who, &ru) // cannot fail for these two
		u.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u.gcCPU = s[0].Value.Float64()
	u.allCPU = s[1].Value.Float64()
	u.idleCPU = s[2].Value.Float64()
	u.allocs = s[3].Value.Uint64()
	return u
}

// delta is the resource use between two snapshots.
type delta struct {
	wall, cpu time.Duration
	// gcFrac is the runtime's GC CPU over its busy (non-idle) CPU.
	gcFrac   float64
	allocsMB float64
}

func since(a usage) delta {
	b := snapshot()
	d := delta{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		allocsMB: float64(b.allocs-a.allocs) / 1e6,
	}
	if busy := (b.allCPU - a.allCPU) - (b.idleCPU - a.idleCPU); busy > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / busy
	}
	return d
}

// rssSampler records the process's resident set size every interval
// until stopped.
type rssSampler struct {
	mu      sync.Mutex
	at      []time.Time
	mb      []float64
	stopped chan struct{}
	done    chan struct{}
}

func startRSSSampler(interval time.Duration) *rssSampler {
	s := &rssSampler{stopped: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if mb, ok := currentRSSMB(); ok {
				s.mu.Lock()
				s.at, s.mb = append(s.at, time.Now()), append(s.mb, mb)
				s.mu.Unlock()
			}
			select {
			case <-s.stopped:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (s *rssSampler) stop() {
	close(s.stopped)
	<-s.done
}

// p90Since returns the 90th percentile of the samples taken since from,
// and their count. The percentile is the resident set the process holds
// for at least a tenth of the phase: its single highest sample swings
// 20% run to run with GC timing, the 90th percentile about 2-7%.
func (s *rssSampler) p90Since(from time.Time) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var xs []float64
	for i, at := range s.at {
		if !at.Before(from) {
			xs = append(xs, s.mb[i])
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	return xs[int(math.Ceil(0.9*float64(len(xs))))-1], len(xs)
}

// currentRSSMB reads the process's resident set size from
// /proc/self/statm.
func currentRSSMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// envRecord describes the machine a run measured on. It carries no
// bound: it exists so a noisy run can be explained from data.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg    string  `json:"loadavg"`
	StealS     float64 `json:"steal_s"`
	IdleS      float64 `json:"idle_s"`
}

// procStat returns the machine-wide idle and steal seconds from
// /proc/stat; zeros when it is unreadable (the record is diagnostic).
func procStat() (idle, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	const userHZ = 100 // USER_HZ on every Linux architecture Go supports
	tick := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v / userHZ
	}
	return tick(4), tick(8)
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// envProbe brackets a run: newEnvProbe at its start, finish at its end.
type envProbe struct{ idle, steal float64 }

func newEnvProbe() envProbe {
	idle, steal := procStat()
	return envProbe{idle, steal}
}

func (p envProbe) finish(commit string) envRecord {
	idle, steal := procStat()
	return envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LoadAvg:    loadAvg(),
		StealS:     steal - p.steal,
		IdleS:      idle - p.idle,
	}
}
