package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fuzzFaultFor maps one fuzz byte to the fault injected into an attempt:
// mostly clean runs, with kills, corrupt parts, stragglers (speculation
// bait), and silent hangs (heartbeat-reap bait) mixed in.
func fuzzFaultFor(data []byte, host Host, rangeIdx, n int) Fault {
	if len(data) == 0 {
		return Fault{}
	}
	id := 0
	for _, c := range host.Name {
		id = id*131 + int(c)
	}
	id = id*31 + rangeIdx*7 + n
	if id < 0 {
		id = -id
	}
	switch b := data[id%len(data)]; {
	case b < 128:
		return Fault{}
	case b < 168:
		return Fault{Kill: true}
	case b < 208:
		return Fault{Corrupt: true}
	case b < 240:
		return Fault{Delay: 150 * time.Millisecond}
	default:
		return Fault{Hang: true, Mute: true}
	}
}

// FuzzSpeculationAccept drives the scheduler through arbitrary
// winner/loser/corrupt/cancel interleavings — speculation always on, a
// fuzz-scripted FaultTransport deciding each attempt's fate — and
// asserts the acceptance invariants: every range is accepted exactly
// once (host completion XOR local fallback), a losing or corrupt part
// is never merged (the output stays byte-identical to serial), and no
// attempt debris survives the run.
func FuzzSpeculationAccept(f *testing.F) {
	spec := smallSpec()
	want := serialReference(f, spec)
	inner := newInstantInner(f, spec, 3)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{130, 180, 220, 250, 0, 90})
	f.Add([]byte{220, 221, 222, 223, 224, 225, 226, 227})
	f.Add([]byte{169, 200, 140, 255, 10, 130, 245, 33, 218, 177})
	// Range 0 is killed on every attempt on both hosts while the other
	// ranges run clean: retry rounds must outlast the hosts' strike
	// budgets so the run still reaches the local fallback.
	f.Add(append(bytes.Repeat([]byte{150}, 5), make([]byte, 26)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mu sync.Mutex
		completed := map[int]int{}
		dir := t.TempDir()
		out, rep, err := Run(spec, Options{
			Dir:    dir,
			Shards: 3,
			Hosts:  []Host{{Name: "a", Slots: 2}, {Name: "b", Slots: 2}},
			Transports: map[string]Transport{
				"local": &FaultTransport{Inner: inner, Script: func(h Host, r, n int) Fault {
					return fuzzFaultFor(data, h, r, n)
				}},
			},
			Speculate:        true,
			SpeculateFloor:   100 * time.Millisecond,
			HeartbeatTimeout: 400 * time.Millisecond,
			MaxHostFailures:  4,
			Retries:          4,
			Backoff:          -1,
			LocalFallback:    true,
			OnEvent: func(ev Event) {
				if ev.Type == EventCompleted {
					mu.Lock()
					completed[ev.Range]++
					mu.Unlock()
				}
			},
		})
		if err != nil {
			t.Fatalf("data %v: %v", data, err)
		}
		if !bytes.Equal(want, canonical(t, out)) {
			t.Fatalf("data %v: fuzzed run diverges from serial bytes (report %+v)", data, rep)
		}
		fallback := map[int]bool{}
		for _, i := range rep.Fallback {
			fallback[i] = true
		}
		for i := range rep.Ranges {
			accepts := completed[i]
			if fallback[i] {
				accepts++
			}
			if accepts != 1 {
				t.Fatalf("data %v: range %d accepted %d times (completions %d, fallback %v)",
					data, i, accepts, completed[i], fallback[i])
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".json" {
				t.Fatalf("data %v: attempt debris %s survived the run", data, e.Name())
			}
		}
	})
}
