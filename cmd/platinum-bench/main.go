// Command platinum-bench regenerates the paper's tables and figures on
// the simulated machine.
//
// Usage:
//
//	platinum-bench [-quick] [-exp id[,id...]] [-j N] [-json] [-list]
//	               [-topology file.json] [-status addr]
//	               [-cpuprofile file] [-memprofile file]
//
// With no -exp it runs every experiment. -quick scales problem sizes
// down (the full sizes are the paper's). -j bounds how many independent
// simulation runs execute concurrently (default and 0: all CPUs; a
// negative value is a usage error); the tables are identical at any
// setting. -json emits one JSON object per experiment instead of
// aligned tables. -list prints the experiment index and exits. -topology loads a machine description in the
// TOPOLOGY.md JSON format for experiments that accept one (topo-custom).
// -status serves a read-only HTTP monitor on addr (e.g. ":8090"): GET /
// returns JSON progress (experiments and simulation runs done vs total,
// current experiment, wall time, ETA) and GET /metrics the same numbers
// in Prometheus text format. Monitoring is purely observational — the
// tables are byte-identical with or without it, at any -j.
// -cpuprofile / -memprofile write runtime/pprof profiles of the run for
// `go tool pprof` (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"platinum/internal/exp"
	"platinum/internal/mach"
)

// jsonResult is the machine-readable form of one experiment's table.
type jsonResult struct {
	ID          string     `json:"id"`
	Paper       string     `json:"paper"`
	Title       string     `json:"title"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
	Notes       []string   `json:"notes,omitempty"`
	WallSeconds float64    `json:"wall_seconds"`
}

// statusHook, when set (tests), receives the monitor's bound address
// once it is listening — the seam that lets a test hit the live
// endpoint without racing the listen.
var statusHook func(addr string)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against explicit streams so tests can drive
// every CLI path; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run scaled-down problem sizes")
	ids := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	jobs := fs.Int("j", runtime.NumCPU(), "max concurrent simulation runs per experiment")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment")
	topoFile := fs.String("topology", "", "topology JSON file (TOPOLOGY.md format) for topo-custom")
	status := fs.String("status", "", "serve a read-only HTTP progress monitor on this address (e.g. :8090)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintln(stderr, "platinum-bench: -j must be positive, or 0 for one run per CPU")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "platinum-bench:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "platinum-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "platinum-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Paper)
		}
		return 0
	}

	var todo []exp.Experiment
	if *ids == "" {
		todo = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := exp.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "platinum-bench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	opts := exp.Options{Quick: *quick, Parallelism: *jobs}
	if *topoFile != "" {
		topo, err := mach.LoadTopology(*topoFile)
		if err != nil {
			return fail(err)
		}
		opts.Topology = topo
	}

	var progress *exp.Progress
	if *status != "" {
		progress = &exp.Progress{}
		opts.Progress = progress
		if err := serveStatus(*status, progress); err != nil {
			return fail(err)
		}
	}
	progress.SetTotalExperiments(len(todo))

	enc := json.NewEncoder(stdout)
	for _, e := range todo {
		start := time.Now()
		progress.BeginExperiment(e.ID)
		tab, err := e.Run(opts)
		progress.EndExperiment()
		if err != nil {
			fmt.Fprintf(stderr, "platinum-bench: %s: %v\n", e.ID, err)
			return 1
		}
		wall := time.Since(start).Seconds()
		if *jsonOut {
			res := jsonResult{
				ID: tab.ID, Paper: e.Paper, Title: tab.Title,
				Header: tab.Header, Rows: tab.Rows, Notes: tab.Notes,
				WallSeconds: wall,
			}
			if err := enc.Encode(res); err != nil {
				return fail(err)
			}
			continue
		}
		if _, err := tab.WriteTo(stdout); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "(%s wall time: %.1fs)\n\n", e.ID, wall)
	}
	return 0
}

// statusDoc is the JSON body served at GET /.
type statusDoc struct {
	ExperimentsTotal int64   `json:"experiments_total"`
	ExperimentsDone  int64   `json:"experiments_done"`
	Current          string  `json:"current,omitempty"`
	RunsTotal        int64   `json:"runs_total"`
	RunsDone         int64   `json:"runs_done"`
	WallSeconds      float64 `json:"wall_seconds"`
	EtaSeconds       float64 `json:"eta_seconds"`
}

// serveStatus binds the read-only monitor and serves it on a
// background goroutine for the life of the process. The ETA is the
// usual linear extrapolation from runs done so far — rough, but runs
// within a sweep are similar-sized, so it converges quickly. Wall
// clocks live here, not in internal/exp, which stays deterministic.
func serveStatus(addr string, p *exp.Progress) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	start := time.Now()
	snap := func() statusDoc {
		s := p.Snapshot()
		wall := time.Since(start).Seconds()
		eta := 0.0
		if s.RunsDone > 0 && s.RunsDone < s.RunsTotal {
			eta = wall * float64(s.RunsTotal-s.RunsDone) / float64(s.RunsDone)
		}
		return statusDoc{
			ExperimentsTotal: s.ExperimentsTotal,
			ExperimentsDone:  s.ExperimentsDone,
			Current:          s.Current,
			RunsTotal:        s.RunsTotal,
			RunsDone:         s.RunsDone,
			WallSeconds:      wall,
			EtaSeconds:       eta,
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		d := snap()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# HELP platinum_bench_experiments_total Experiments in this sweep.\n")
		fmt.Fprintf(w, "# TYPE platinum_bench_experiments_total gauge\n")
		fmt.Fprintf(w, "platinum_bench_experiments_total %d\n", d.ExperimentsTotal)
		fmt.Fprintf(w, "# HELP platinum_bench_experiments_done Experiments finished so far.\n")
		fmt.Fprintf(w, "# TYPE platinum_bench_experiments_done gauge\n")
		fmt.Fprintf(w, "platinum_bench_experiments_done %d\n", d.ExperimentsDone)
		fmt.Fprintf(w, "# HELP platinum_bench_runs_total Simulation runs scheduled so far.\n")
		fmt.Fprintf(w, "# TYPE platinum_bench_runs_total gauge\n")
		fmt.Fprintf(w, "platinum_bench_runs_total %d\n", d.RunsTotal)
		fmt.Fprintf(w, "# HELP platinum_bench_runs_done Simulation runs finished so far.\n")
		fmt.Fprintf(w, "# TYPE platinum_bench_runs_done gauge\n")
		fmt.Fprintf(w, "platinum_bench_runs_done %d\n", d.RunsDone)
		fmt.Fprintf(w, "# HELP platinum_bench_wall_seconds Wall-clock seconds since the sweep started.\n")
		fmt.Fprintf(w, "# TYPE platinum_bench_wall_seconds gauge\n")
		fmt.Fprintf(w, "platinum_bench_wall_seconds %f\n", d.WallSeconds)
	})
	go http.Serve(ln, mux)
	if statusHook != nil {
		statusHook(ln.Addr().String())
	}
	return nil
}
