// Command pprof-fold folds a CPU profile written by runtime/pprof (for
// example by platinum-bench -cpuprofile, or the benchmark's traced run)
// by package into the simulator's layers and prints each layer's share
// of host CPU, then the busiest packages:
//
//	pprof-fold [-top 15] cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"platinum/perfbench/fold"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pprof-fold", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 15, "number of packages to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pprof-fold [-top N] profile")
		return 2
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "pprof-fold:", err)
		return 1
	}
	byPkg, err := fold.ByPackage(b)
	if err != nil {
		fmt.Fprintln(stderr, "pprof-fold:", err)
		return 1
	}
	shares := fold.Shares(byPkg)
	for _, l := range fold.Layers {
		fmt.Fprintf(stdout, "host.%s_pct\t%.2f\n", l, shares[l])
	}
	fmt.Fprintln(stdout)
	for _, line := range fold.Top(byPkg, *top) {
		fmt.Fprintln(stdout, line)
	}
	return 0
}
