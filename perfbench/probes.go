package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"platinum/perfbench/fold"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// hostShares folds the CPU profile at path into host.<layer>_pct
// metrics and prints the busiest packages.
func hostShares(m map[string]metric, path string, out io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	byPkg, err := fold.ByPackage(b)
	if err != nil {
		return err
	}
	for layer, pct := range fold.Shares(byPkg) {
		m["host."+layer+"_pct"] = metric{pct, "%"}
	}
	for _, l := range fold.Top(byPkg, 12) {
		fmt.Fprintln(out, "cpu", l)
	}
	return nil
}

// probeReps is how many times each probe is repeated; it reports the
// median.
const probeReps = 5

// probeBody makes n calls of the probed entry point and returns the
// host time they took.
type probeBody func(n int) (time.Duration, error)

// whole times all of f as the probed calls.
func whole(f func(n int) error) probeBody {
	return func(n int) (time.Duration, error) {
		t0 := time.Now()
		err := f(n)
		return time.Since(t0), err
	}
}

// probe runs body probeReps times and returns the median host
// nanoseconds per call.
func probe(n int, body probeBody) (float64, error) {
	per := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		d, err := body(n)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// onThread runs body on a fresh engine's single simulated thread and
// returns the first error it reports.
func onThread(e *sim.Engine, body func(th *sim.Thread) error) error {
	var err error
	e.Spawn("probe", func(th *sim.Thread) { err = body(th) })
	if runErr := e.Run(); runErr != nil {
		return runErr
	}
	return err
}

// runProbes times single public entry points in isolation, one per
// layer boundary, and adds them as probe.* metrics.
func runProbes(m map[string]metric) error {
	probes := []struct {
		name, unit string
		n          int
		body       probeBody
	}{
		{"probe.sim.fast_ns", "ns", 2_000_000, whole(func(n int) error { return advance(1, n) })},
		{"probe.sim.handoff_ns", "ns", 200_000, whole(func(n int) error { return advance(8, n) })},
		{"probe.mach.access_local_ns", "ns", 500_000, whole(func(n int) error { return access(0, n) })},
		{"probe.mach.access_remote_ns", "ns", 500_000, whole(func(n int) error { return access(1, n) })},
		{"probe.core.atc_hit_ns", "ns", 500_000, whole(func(n int) error { return touch(false, n) })},
		{"probe.core.fault_ns", "ns", 20_000, whole(func(n int) error { return touch(true, n) })},
		{"probe.kernel.range_read_ns", "ns", 20_000, whole(rangeRead)},
		{"probe.kernel.boot_us", "us", 50, whole(boot)},
		{"probe.apps.acquire_warm_us", "us", 200, acquireWarm},
		{"probe.span.record_ns", "ns", 1_000_000, whole(record)},
	}
	for _, p := range probes {
		ns, err := probe(p.n, p.body)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if p.unit == "us" {
			ns /= 1e3
		}
		m[p.name] = metric{ns, p.unit}
	}
	return nil
}

// advance calls sim.Thread.Advance n times in total, spread over
// threads lockstep threads: one thread always takes the fast path,
// eight hand off on every call.
func advance(threads, n int) error {
	e := sim.NewEngine()
	for t := 0; t < threads; t++ {
		e.Spawn("w", func(th *sim.Thread) {
			for i := 0; i < n/threads; i++ {
				th.Advance(100)
			}
		})
	}
	return e.Run()
}

// access calls mach.Machine.Access n times from processor 0 to module
// mod (0 local, 1 remote) on the paper machine.
func access(mod, n int) error {
	e := sim.NewEngine()
	mc, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		return err
	}
	return onThread(e, func(th *sim.Thread) error {
		for i := 0; i < n; i++ {
			mc.Access(th, 0, mod, 1, false)
		}
		return nil
	})
}

// touch calls core.System.Touch n times on one page: reads that hit the
// ATC, or writes from alternating processors under always-cache, each
// of which faults and migrates the page.
func touch(migrate bool, n int) error {
	e := sim.NewEngine()
	mc, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if migrate {
		cfg.Policy = core.AlwaysCache{}
	}
	s, err := core.NewSystem(mc, cfg)
	if err != nil {
		return err
	}
	cm := s.NewCmap()
	for p := 0; p < mc.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	if _, err := cm.Enter(0, s.NewCpage(), core.Read|core.Write); err != nil {
		return err
	}
	return onThread(e, func(th *sim.Thread) error {
		for i := 0; i < n; i++ {
			proc := 0
			if migrate {
				proc = i % 2
			}
			if _, err := s.Touch(th, proc, cm, 0, migrate); err != nil {
				return err
			}
		}
		return nil
	})
}

// rangeRead calls kernel.Thread.ReadRange n times on one locally
// replicated 1024-word page.
func rangeRead(n int) error {
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		return err
	}
	sp := k.NewSpace()
	va, err := sp.AllocPages("probe", 1, core.Read|core.Write)
	if err != nil {
		return err
	}
	buf := make([]uint32, k.PageWords())
	k.Spawn("probe", 0, sp, func(t *kernel.Thread) {
		for i := 0; i < n; i++ {
			t.ReadRange(va, buf)
		}
	})
	return k.Run()
}

// boot calls kernel.Boot n times for the paper machine, cold.
func boot(n int) error {
	for i := 0; i < n; i++ {
		if _, err := kernel.Boot(kernel.DefaultConfig()); err != nil {
			return err
		}
	}
	return nil
}

// acquireWarm times n warm apps.AcquirePlatform calls: each acquires a
// pooled platform (resetting it), runs a one-step program so the
// platform may be pooled again, and releases it. Only the acquisitions
// are timed.
func acquireWarm(n int) (time.Duration, error) {
	const key = "perfbench:probe"
	cfg := kernel.DefaultConfig()
	var acquire time.Duration
	for i := 0; i <= n; i++ {
		t0 := time.Now()
		pl, err := apps.AcquirePlatform(key, cfg)
		if i > 0 { // the first acquisition boots cold
			acquire += time.Since(t0)
		}
		if err != nil {
			return 0, err
		}
		pl.Spawn("probe", 0, func(t apps.Env) { t.Compute(1) })
		if err := pl.Run(); err != nil {
			return 0, err
		}
		apps.ReleasePlatform(key, pl)
	}
	return acquire, nil
}

// record calls span.Recorder.Record n times on a warm flight ring.
func record(n int) error {
	r := span.NewRecorder(0)
	for i := 0; i < n; i++ {
		r.Record(span.Span{Kind: span.KindFault, Start: sim.Time(i), End: sim.Time(i + 10), Proc: i & 15, Page: 1})
	}
	if r.Total() != int64(n) {
		return fmt.Errorf("recorded %d spans, want %d", r.Total(), n)
	}
	return nil
}
