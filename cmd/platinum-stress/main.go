// Command platinum-stress runs the seeded stress/fault-injection
// harness for the coherent memory protocol (internal/stress): a
// randomized schedule of reads, writes, time advances, address-space
// deactivations, defrost sweeps and teardowns, with the protocol's
// structural invariants, cost-attribution conservation, and data
// coherence checked after every operation.
//
// A single run replays one seed; -duration turns it into a soak that
// keeps running consecutive seeds until the wall-clock budget expires.
// On failure the schedule is shrunk (unless -shrink=false) and a
// minimal reproducer — seed plus op listing — is printed to stderr,
// and the process exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"platinum/internal/sim"
	"platinum/internal/stress"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "schedule seed (soak mode: first seed)")
		ops        = flag.Int("ops", 20000, "operations per run")
		procs      = flag.Int("procs", 4, "simulated processors")
		spaces     = flag.Int("spaces", 2, "address spaces sharing the object")
		pages      = flag.Int("pages", 8, "pages in the shared object")
		frames     = flag.Int("frames", 6, "frames per memory module")
		duration   = flag.Duration("duration", 0, "soak for this wall-clock time over consecutive seeds (0 = single run)")
		faults     = flag.Bool("faults", false, "enable fault injection (retries, transfer stalls, slow acks, alloc failures)")
		shrink     = flag.Bool("shrink", true, "shrink the schedule to a minimal reproducer on failure")
		bug        = flag.String("bug", "", "deliberately inject a protocol bug (self-test): \"desync\"")
		verbose    = flag.Bool("v", false, "print per-run summaries in soak mode")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	cfg := stress.DefaultConfig()
	cfg.Seed = *seed
	cfg.Ops = *ops
	cfg.Procs = *procs
	cfg.Spaces = *spaces
	cfg.Pages = *pages
	cfg.FramesPerModule = *frames
	cfg.Bug = *bug
	if *faults {
		cfg.Faults = stress.DefaultFaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "platinum-stress: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "platinum-stress: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "platinum-stress: %v\n", err)
			os.Exit(1)
		}
	}

	code := 0
	if *duration <= 0 {
		code = report(runOne(cfg, *shrink, true))
	} else {
		// Soak: consecutive seeds until the wall-clock budget runs out.
		deadline := time.Now().Add(*duration)
		runs := 0
		for time.Now().Before(deadline) {
			if code = report(runOne(cfg, *shrink, *verbose)); code != 0 {
				fmt.Fprintf(os.Stderr, "soak: failed on seed %d after %d clean runs\n", cfg.Seed, runs)
				break
			}
			runs++
			cfg.Seed++
		}
		if code == 0 {
			fmt.Printf("soak: %d runs clean (seeds %d..%d, %d ops each)\n", runs, *seed, cfg.Seed-1, cfg.Ops)
		}
	}

	// Flush profiles before exiting (os.Exit skips defers).
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "platinum-stress: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "platinum-stress: %v\n", err)
		}
		f.Close()
	}
	os.Exit(code)
}

// runOne executes one seed and prints its summary when verbose.
func runOne(cfg stress.Config, shrink, verbose bool) *stress.Result {
	res := stress.Run(cfg, shrink)
	if verbose {
		mode := "faults=off"
		if cfg.Faults.Enabled() {
			mode = "faults=on"
		}
		fmt.Printf("seed %-6d %s: %d ops, %v virtual, %d faults, %d freezes, %d thaws, %d no-memory, digest %s\n",
			cfg.Seed, mode, res.OpsRun, res.Elapsed, res.Faults, res.Freezes, res.Thaws, res.NoMemory, res.Digest)
		if cfg.Faults.Enabled() {
			fmt.Printf("  injected: retry=%v slow_ack=%v (unattributed=%v)\n",
				res.Account[sim.CauseRetry], res.Account[sim.CauseSlowAck], res.Account[sim.CauseUnattributed])
		}
	}
	return res
}

// report prints any failure and returns the process exit code.
func report(res *stress.Result) int {
	if res.Failure == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "FAIL: %v\n", res.Failure)
	fmt.Fprint(os.Stderr, res.Failure.Repro())
	return 1
}
