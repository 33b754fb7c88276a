// Command bench-ab compares two commits on one host with the
// repository's benchmark. Run it from the root of a git checkout:
//
//	bash perfbench/ab.sh [-pairs 10] [-seconds 20] [-trace 0] [-workloads gauss,topomix,sweep] BASE HEAD
//
// It checks both commits out into git worktrees under .bench_build/ab,
// copies this checkout's benchmark (perfbench/ and BENCHMARK.json) over
// both so the two sides run identical benchmark code, and then runs
// pairs of benchmark runs, alternating which commit goes first. Pair i
// uses seed i+1 on both sides. For every workload and metric it prints
// each side's median and quartiles, how many pairs HEAD won, and a
// verdict: HEAD is better (or worse) only when it wins (or loses) at
// least nine in ten pairs and the medians differ by more than BASE's
// interquartile range. Ties count for neither side.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// side is one commit under comparison.
type side struct {
	label string // BASE or HEAD
	rev   string
	dir   string // worktree
}

// runResult is the last line a benchmark run prints.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pairs := fs.Int("pairs", 10, "pairs of runs per workload (at least 10 for a verdict)")
	seconds := fs.Int("seconds", 20, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 compares the per-layer metrics instead")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 || *pairs < 1 {
		fmt.Fprintln(stderr, "usage: bench-ab [flags] BASE HEAD")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench-ab:", err)
		return 1
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	names := spec.workloads
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	sides := []*side{{label: "BASE", rev: fs.Arg(0)}, {label: "HEAD", rev: fs.Arg(1)}}
	defer func() {
		for _, s := range sides {
			if s.dir != "" {
				removeWorktree(s.dir, stderr)
			}
		}
	}()
	for _, s := range sides {
		if err := checkout(s, spec.paths); err != nil {
			return fail(err)
		}
	}

	// results[workload][side] is one metric map per pair.
	results := map[string][2][]map[string]float64{}
	for i := 0; i < *pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, w := range names {
			r := results[w]
			for _, k := range order {
				args := []string{"perfbench/run.sh", "--workload", w, "--seed", strconv.Itoa(i + 1),
					"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace)}
				m, err := benchRun(sides[k].dir, args)
				if err != nil {
					return fail(fmt.Errorf("%s %s pair %d: %w", sides[k].label, w, i+1, err))
				}
				r[k] = append(r[k], m)
			}
			results[w] = r
			fmt.Fprintf(stderr, "bench-ab: pair %d/%d %s done\n", i+1, *pairs, w)
		}
	}
	for _, w := range names {
		report(stdout, w, results[w], spec.better, *pairs)
	}
	return 0
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	paths     []string
	workloads []string
	better    map[string]string // metric name -> "lower" or "higher"
}

func readSpec(path string) (spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return spec{}, fmt.Errorf("run from the repository root: %w", err)
	}
	type m struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	}
	var raw struct {
		Paths     []string `json:"paths"`
		Workloads []m      `json:"workloads"`
		EndToEnd  []m      `json:"end_to_end"`
		PerLayer  []m      `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return spec{}, fmt.Errorf("%s: %w", path, err)
	}
	s := spec{paths: raw.Paths, better: map[string]string{}}
	for _, w := range raw.Workloads {
		s.workloads = append(s.workloads, w.Name)
	}
	for _, x := range append(raw.EndToEnd, raw.PerLayer...) {
		s.better[x.Name] = x.Better
	}
	return s, nil
}

// checkout creates a detached worktree of s.rev under .bench_build/ab
// and copies the current benchmark files over it.
func checkout(s *side, paths []string) error {
	sha, err := git("rev-parse", "--verify", s.rev+"^{commit}")
	if err != nil {
		return err
	}
	s.dir, err = filepath.Abs(filepath.Join(".bench_build", "ab", strings.ToLower(s.label)+"-"+sha[:12]))
	if err != nil {
		return err
	}
	removeWorktree(s.dir, io.Discard) // left over from an interrupted run
	if _, err := git("worktree", "add", "--detach", s.dir, sha); err != nil {
		return err
	}
	for _, p := range append([]string{"BENCHMARK.json"}, paths...) {
		if err := copyTree(p, filepath.Join(s.dir, p)); err != nil {
			return fmt.Errorf("copying benchmark file %s: %w", p, err)
		}
	}
	return nil
}

func removeWorktree(dir string, stderr io.Writer) {
	if _, err := os.Stat(dir); err != nil {
		return
	}
	if _, err := git("worktree", "remove", "--force", dir); err != nil {
		fmt.Fprintln(stderr, "bench-ab:", err)
	}
}

func git(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// copyTree copies a regular file or a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, info.Mode().Perm())
	})
}

// benchRun runs the benchmark once in dir and returns its metrics.
func benchRun(dir string, args []string) (map[string]float64, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchmark run: %w", err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	if !r.Correct {
		return nil, errors.New("run reported incorrect outputs")
	}
	m := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// report prints one workload's comparison.
func report(w io.Writer, workload string, r [2][]map[string]float64, better map[string]string, pairs int) {
	fmt.Fprintf(w, "== %s (%d pairs)\n", workload, pairs)
	fmt.Fprintf(w, "%-30s %12s %12s %12s   %12s %12s %12s  %7s  %s\n",
		"metric", "BASE q1", "median", "q3", "HEAD q1", "median", "q3", "HEAD won", "verdict")
	var names []string
	for k := range r[0][0] {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := column(r[0], name), column(r[1], name)
		qa, qb := quartiles(a), quartiles(b)
		won, verdict := compare(a, b, better[name] != "higher")
		fmt.Fprintf(w, "%-30s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g  %3d/%-3d  %s\n",
			name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], won, pairs, verdict)
	}
}

// compare judges HEAD's values b against BASE's values a, pair by pair,
// where lower is better unless lower is false. It returns the pairs
// HEAD won and the verdict: better or worse needs at least ten pairs,
// nine in ten of them won (or lost), and medians further apart than
// BASE's interquartile range.
func compare(a, b []float64, lower bool) (won int, verdict string) {
	lost := 0
	for i := range a {
		switch {
		case a[i] == b[i]:
		case (b[i] < a[i]) == lower:
			won++
		default:
			lost++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	differ := math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]
	switch {
	case len(a) < 10:
		return won, "too few pairs"
	case 10*won >= 9*len(a) && differ:
		return won, "HEAD better"
	case 10*lost >= 9*len(a) && differ:
		return won, "HEAD worse"
	}
	return won, "no claim"
}

func column(runs []map[string]float64, name string) []float64 {
	v := make([]float64, len(runs))
	for i, m := range runs {
		v[i] = m[name]
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) (exclusive).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
