// Command perfbench is the repository's benchmark. It runs one
// named workload against the simulator's public entry points for a
// fixed host-time budget, checks every output against committed
// digests and the programs' own verification, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench -workload gauss -seed 7 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with all
// tracing off. With -trace 1 it reports the per-layer metrics instead:
// counters read from the simulator after a traced run, layer probes,
// benchmark-side phase spans, and each layer's share of host CPU folded
// from a CPU profile. README.md maps every per-layer metric to the
// end-to-end metric it should move.
//
// Workloads are gauss (one Fig. 1 point), topomix (write-shared TopoMix
// on a 64-node clustered machine) and sweep (every experiment in quick
// mode). Only gauss has random inputs: its matrix seed is -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// defaultSeed is the seed whose outputs digests.json records. It is the
// matrix seed of the paper-sized Fig. 1 run (apps.DefaultGaussConfig).
const defaultSeed = 7

// setupReps is how many times a run builds its platforms cold; setup_s
// is the median.
const setupReps = 25

// outDir receives the traced run's CPU profile and phase spans; it is
// also where run.sh builds, so nothing leaves the checkout.
const outDir = ".bench_build"

// notMeasured is reported for a per-layer metric the workload cannot
// observe (the sweep's engines live inside the experiment harness, and
// the single-simulation workloads do not use the harness).
const notMeasured = -1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gauss, topomix or sweep")
	seed := fs.Int64("seed", defaultSeed, "workload seed (gauss matrix seed)")
	seconds := fs.Float64("seconds", 20, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	writeDigests := fs.String("write-digests", "", "record the default-seed output digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests != "" {
		if err := recordDigests(*writeDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	g, err := committedGate()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, g)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, budget, stdout, stderr)
	} else {
		res, err = perLayer(w, budget, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d runs failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// tally counts attempted and failed iterations; a failure is reported
// on standard error and the run goes on.
type tally struct {
	attempted, failed int
	errOut            io.Writer
}

func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.errOut, "perfbench: run %d failed: %v\n", t.attempted, err)
		return false
	}
	return true
}

// measureSetup builds the workload's platforms cold setupReps times and
// returns the median host seconds.
func measureSetup(w workload) (float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each build starts from the same collected heap
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// samples holds the per-iteration measurements of one timed loop.
type samples struct {
	wall, heapPeak, allocMB, allocs []float64
}

// warmUp runs one verified iteration, which fills the platform pool and
// grows every buffer the timed iterations reuse.
func warmUp(w workload, t *tally) {
	t.record(w.iterate(&iteration{}))
}

// failedResult reports a run in which no iteration passed its checks.
func (t *tally) failedResult() result {
	return result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
}

// result wraps metrics with the tally; the run is correct only when
// every iteration passed its checks.
func (t *tally) result(m map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// loop runs verified iterations until the budget is spent (at least
// three) and returns the successful iterations' measurements. rec, when
// non-nil, records phase spans. The budget counts the untimed parts of
// an iteration too (collection, verification).
func loop(w workload, budget time.Duration, traced bool, rec *recorder, t *tally) samples {
	heap := startHeapSampler()
	defer heap.close()
	var s samples
	start := time.Now()
	for len(s.wall) < 3 || time.Since(start) < budget {
		it := &iteration{traced: traced, rec: rec, n: t.attempted + 1}
		// Start every run from a collected heap, as testing.B starts
		// every benchmark: otherwise where the collector's cycles fall
		// moves both the run's time and its heap peak.
		runtime.GC()
		heap.reset()
		err := w.iterate(it)
		peak := heap.peak()
		if !t.record(err) {
			if len(s.wall) == 0 && t.failed >= 3 {
				break // nothing is going to pass
			}
			continue
		}
		s.wall = append(s.wall, it.wall.Seconds())
		s.allocMB = append(s.allocMB, float64(it.allocBytes)/1e6)
		s.allocs = append(s.allocs, float64(it.allocs))
		s.heapPeak = append(s.heapPeak, float64(peak)/1e6)
	}
	return s
}

// endToEnd measures the untraced run: set-up, host time per run, heap
// peak and allocations.
func endToEnd(w workload, budget time.Duration, stdout, stderr io.Writer) (result, error) {
	t := &tally{errOut: stderr}
	setup, err := measureSetup(w)
	if err != nil {
		return result{}, err
	}
	warmUp(w, t)
	s := loop(w, budget, false, nil, t)
	if len(s.wall) == 0 {
		return t.failedResult(), nil
	}
	summarize(stdout, w.name(), "wall_s", s.wall)
	m := map[string]metric{
		"wall_s":           {median(s.wall), "s"},
		"setup_s":          {setup, "s"},
		"heap_peak_mb":     {median(s.heapPeak), "MB"},
		"alloc_mb_per_run": {median(s.allocMB), "MB"},
	}
	return t.result(m), nil
}

// perLayer measures the traced run. Half the budget runs untraced, for
// the trace-overhead baseline; the other half runs under a CPU profile
// with the kernel's histograms on and phase spans recorded. The layer
// probes run last, outside the profile.
func perLayer(w workload, budget time.Duration, stdout, stderr io.Writer) (result, error) {
	t := &tally{errOut: stderr}
	rec := &recorder{origin: time.Now()}
	var setupErr error
	rec.span("setup", 0, func() { setupErr = w.setup() })
	if setupErr != nil {
		return result{}, fmt.Errorf("setup: %w", setupErr)
	}
	warmUp(w, t)
	plain := loop(w, budget/2, false, nil, t)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	profPath := filepath.Join(outDir, "cpu-"+w.name()+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return result{}, err
	}
	traced := loop(w, budget/2, true, rec, t)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return result{}, err
	}
	if len(plain.wall) == 0 || len(traced.wall) == 0 {
		return t.failedResult(), nil
	}
	if err := rec.write(filepath.Join(outDir, "spans-"+w.name()+".json")); err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	plainWall := median(plain.wall)
	m["trace_overhead_pct"] = metric{100 * (median(traced.wall)/plainWall - 1), "%"}
	m["allocs_per_run"] = metric{median(plain.allocs), "count"}
	for _, ph := range []string{"setup", "run", "verify"} {
		m["phase."+ph+"_s"] = metric{rec.median(ph), "s"}
	}
	w.layerMetrics(m, plainWall)
	if err := hostShares(m, profPath, stdout); err != nil {
		return result{}, err
	}
	if err := runProbes(m); err != nil {
		return result{}, err
	}
	summarize(stdout, w.name(), "wall_s (untraced half)", plain.wall)
	summarize(stdout, w.name(), "wall_s (traced half)", traced.wall)
	return t.result(m), nil
}

// summarize prints a human-readable line for one sample set.
func summarize(w io.Writer, workload, what string, v []float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	fmt.Fprintf(w, "%s %s: median %.4f  min %.4f  max %.4f  (n=%d)\n",
		workload, what, median(s), s[0], s[len(s)-1], len(s))
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
