package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/exp"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// workload is one named input set of the benchmark.
type workload interface {
	name() string
	// setup builds every platform the workload needs, cold, and drops
	// them; the timed loop then draws warm platforms from the pool.
	setup() error
	// iterate runs and verifies one iteration.
	iterate(it *iteration) error
	// layerMetrics adds the per-layer metrics of the last traced
	// iteration; wallS is the untraced median host seconds per run.
	layerMetrics(m map[string]metric, wallS float64)
}

func newWorkload(name string, seed int64, g *gate) (workload, error) {
	switch name {
	case "gauss":
		return newGauss(seed, g), nil
	case "topomix":
		return newTopoMix(g), nil
	case "sweep":
		return newSweep(g), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gauss, topomix or sweep)", name)
}

// --- gauss and topomix: one simulation per iteration ---

// simWorkload runs one program on one pooled PLATINUM platform.
type simWorkload struct {
	id   string
	key  string // platform pool key
	kcfg kernel.Config
	// exec runs the program, verifying it where the program can, and
	// returns its checksum (0 for programs without one).
	exec func(pl *apps.PlatinumPlatform) (sim.Time, uint32, error)
	// check compares an iteration's outputs against the committed
	// digests or the reference result.
	check func(o outputs) error

	last outputs // outputs of the last successful iteration
}

// outputs are the deterministic results of one simulation: the
// simulated time, the program's checksum and the protocol counters.
type outputs struct {
	SimNs                                                            int64
	Checksum                                                         uint32
	ReadFaults, WriteFaults, Replications, Migrations, Invalidations int64
	Freezes, Shootdowns, ATCHits, ATCMisses                          int64
	PTWalks, PTDeferred, FlushIPIs                                   int64
	MachAccesses, MachWords, QueueWaitNs                             int64

	// Engine dispatch counts and fault latency percentiles (traced
	// runs only) are observations of the simulator, not outputs, and
	// stay out of the digests.
	fastSteps, slowSteps int64
	faultP50, faultP99   int64
}

// line renders the outputs canonically for digesting; withChecksum
// false leaves out the only seed-dependent field.
func (o outputs) line(withChecksum bool) string {
	s := fmt.Sprintf("sim_ns=%d read_faults=%d write_faults=%d replications=%d migrations=%d "+
		"invalidations=%d freezes=%d shootdowns=%d atc_hits=%d atc_misses=%d pt_walks=%d "+
		"pt_deferred=%d flush_ipis=%d mach_accesses=%d mach_words=%d queue_wait_ns=%d",
		o.SimNs, o.ReadFaults, o.WriteFaults, o.Replications, o.Migrations,
		o.Invalidations, o.Freezes, o.Shootdowns, o.ATCHits, o.ATCMisses, o.PTWalks,
		o.PTDeferred, o.FlushIPIs, o.MachAccesses, o.MachWords, o.QueueWaitNs)
	if withChecksum {
		s += fmt.Sprintf(" checksum=%08x", o.Checksum)
	}
	return s
}

// collect reads the outputs of a finished run from its kernel.
func collect(k *kernel.Kernel, elapsed sim.Time, checksum uint32, traced bool) outputs {
	o := outputs{SimNs: int64(elapsed), Checksum: checksum}
	r := k.Report()
	for _, p := range r.Pages {
		o.ReadFaults += p.ReadFaults
		o.WriteFaults += p.WriteFaults
		o.Replications += p.Replications
		o.Migrations += p.Migrations
		o.Invalidations += p.Invalidated
		o.Freezes += p.Freezes
	}
	o.Shootdowns = r.Shootdowns
	for _, a := range r.ATC {
		o.ATCHits += a.Hits
		o.ATCMisses += a.Misses
	}
	pt := k.System().PTStats()
	o.PTWalks, o.PTDeferred, o.FlushIPIs = pt.Walks, pt.Deferred, pt.FlushIPIs
	for _, ms := range k.Machine().Stats() {
		o.MachAccesses += ms.Accesses
		o.MachWords += ms.Words
		o.QueueWaitNs += int64(ms.QueueWait)
	}
	o.fastSteps, o.slowSteps = k.Engine().Stats()
	if traced {
		h := k.Spans().OpHist(span.KindFault)
		o.faultP50, o.faultP99 = h.Quantile(0.50), h.Quantile(0.99)
	}
	return o
}

func (w *simWorkload) name() string { return w.id }

func (w *simWorkload) setup() error {
	_, err := apps.NewPlatinumPlatform(w.kcfg)
	return err
}

func (w *simWorkload) iterate(it *iteration) error {
	var pl *apps.PlatinumPlatform
	err := it.timed("acquire", func() error {
		var err error
		pl, err = apps.AcquirePlatform(w.key, w.kcfg)
		return err
	})
	if err != nil {
		return err
	}
	if it.traced {
		pl.K.EnableHistograms()
	}
	var elapsed sim.Time
	var sum uint32
	if err := it.timed("run", func() error {
		var err error
		elapsed, sum, err = w.exec(pl)
		return err
	}); err != nil {
		return err // a failed platform is not pooled
	}
	var o outputs
	err = it.untimed("verify", func() error {
		if err := pl.K.System().Validate(); err != nil {
			return err
		}
		if err := metrics.CheckConservation(pl.Accounts()); err != nil {
			return err
		}
		o = collect(pl.K, elapsed, sum, it.traced)
		return w.check(o)
	})
	if err != nil {
		return err
	}
	w.last = o
	return it.timed("release", func() error {
		apps.ReleasePlatform(w.key, pl)
		return nil
	})
}

func (w *simWorkload) layerMetrics(m map[string]metric, wallS float64) {
	o := w.last
	steps := o.fastSteps + o.slowSteps
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	count("sim.handoffs", o.slowSteps)
	count("sim.fast_steps", o.fastSteps)
	m["sim.fast_ratio"] = metric{float64(o.fastSteps) / float64(steps), "ratio"}
	m["sim.dispatches_per_s"] = metric{float64(steps) / wallS, "1/s"}
	m["sim.sim_s"] = metric{float64(o.SimNs) / 1e9, "sim_s"}
	count("core.atc_hits", o.ATCHits)
	m["core.atc_hit_ratio"] = metric{float64(o.ATCHits) / float64(o.ATCHits+o.ATCMisses), "ratio"}
	count("core.read_faults", o.ReadFaults)
	count("core.write_faults", o.WriteFaults)
	count("core.replications", o.Replications)
	count("core.migrations", o.Migrations)
	count("core.invalidations", o.Invalidations)
	count("core.freezes", o.Freezes)
	count("core.shootdowns", o.Shootdowns)
	count("core.pt_walks", o.PTWalks)
	count("core.pt_deferred", o.PTDeferred)
	count("core.flush_ipis", o.FlushIPIs)
	count("mach.accesses", o.MachAccesses)
	count("mach.words", o.MachWords)
	m["mach.queue_wait_sim_ms"] = metric{float64(o.QueueWaitNs) / 1e6, "sim_ms"}
	m["span.fault_p50_sim_us"] = metric{float64(o.faultP50) / 1e3, "sim_us"}
	m["span.fault_p99_sim_us"] = metric{float64(o.faultP99) / 1e3, "sim_us"}
	m["exp.runs"] = metric{notMeasured, "count"}
	for _, e := range exp.All() {
		m["exp.share_pct."+e.ID] = metric{notMeasured, "%"}
	}
}

// newGauss is one Fig. 1 point: 800x800 Gaussian elimination with
// 1024-word pages on the 16-node Butterfly Plus under the PLATINUM
// policy, with the matrix seed taken from the benchmark seed.
func newGauss(seed int64, g *gate) *simWorkload {
	cfg := apps.DefaultGaussConfig(800, 16)
	cfg.Seed = seed
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 1024
	want := apps.GaussReferenceChecksum(cfg) // sequential, untimed
	return &simWorkload{
		id:   "gauss",
		key:  "perfbench:gauss",
		kcfg: kcfg,
		exec: func(pl *apps.PlatinumPlatform) (sim.Time, uint32, error) {
			r, err := apps.RunGaussPlatinum(pl, cfg)
			return r.Elapsed, r.Checksum, err
		},
		check: func(o outputs) error {
			if o.Checksum != want {
				return fmt.Errorf("gauss checksum %08x, reference %08x", o.Checksum, want)
			}
			if seed == defaultSeed {
				return g.check("gauss", o.line(true))
			}
			// A held-out seed: no seed changes the counters.
			return g.check("gauss.counters", o.line(false))
		},
	}
}

// topoMixMachine is the 64-node clustered machine of the pt-variants
// experiment: 16-node clusters, inter-cluster distance 2000 per mille,
// one switch level at 50 ns/word, 256-word pages.
func topoMixMachine() *mach.Topology {
	const nodes, cluster, far = 64, 16, 2000
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	dist := make([]int, nodes*nodes)
	domain := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		domain[i] = i / cluster
		for j := 0; j < nodes; j++ {
			dist[i*nodes+j] = mach.DistScale
			if i/cluster != j/cluster {
				dist[i*nodes+j] = far
			}
		}
	}
	return &mach.Topology{
		Name:     "perfbench-cluster-64x16-far2000",
		Base:     base,
		Distance: dist,
		Levels:   []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}},
	}
}

// newTopoMix is TopoMix with a hot-counter write every round under the
// always-cache policy and batched shootdown over single-home page
// tables. It has no random inputs; the program audits its own results.
func newTopoMix(g *gate) *simWorkload {
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = topoMixMachine()
	kcfg.Core.FramesPerModule = 32
	kcfg.Core.Policy = core.AlwaysCache{}
	kcfg.Core.PageTables = core.PTConfig{Mode: core.PTHome, BatchShootdown: true}
	mix := apps.DefaultTopoMixConfig(64, 256)
	mix.Rounds = 96
	mix.HotWriteEvery = 1
	return &simWorkload{
		id:   "topomix",
		key:  "perfbench:topomix",
		kcfg: kcfg,
		exec: func(pl *apps.PlatinumPlatform) (sim.Time, uint32, error) {
			r, err := apps.RunTopoMix(pl, mix)
			return r.Elapsed, 0, err
		},
		check: func(o outputs) error { return g.check("topomix", o.line(true)) },
	}
}

// --- sweep: every experiment in quick mode ---

// sweepWorkload runs every registered experiment in quick mode, as
// platinum-bench -quick does, with two workers (fewer on a host with
// fewer CPUs).
type sweepWorkload struct {
	gate    *gate
	opts    exp.Options
	runs    []float64            // simulation runs per iteration
	expWall map[string][]float64 // per-experiment host seconds, untraced
}

func newSweep(g *gate) *sweepWorkload {
	return &sweepWorkload{
		gate:    g,
		opts:    exp.Options{Quick: true, Parallelism: min(2, runtime.NumCPU())},
		expWall: map[string][]float64{},
	}
}

func (w *sweepWorkload) name() string { return "sweep" }

// setup boots one platform per machine shape the quick sweep uses: the
// 16-node paper machine at both page sizes, the 32-node scaling machine
// and the 64-node clustered machine.
func (w *sweepWorkload) setup() error {
	paper := kernel.DefaultConfig()
	small := kernel.DefaultConfig()
	small.Machine.PageWords = 256
	scaling := kernel.DefaultConfig()
	scaling.Machine.Nodes = 32
	clustered := kernel.DefaultConfig()
	clustered.Topology = topoMixMachine()
	clustered.Core.FramesPerModule = 32
	for _, c := range []kernel.Config{paper, small, scaling, clustered} {
		if _, err := apps.NewPlatinumPlatform(c); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepWorkload) iterate(it *iteration) error {
	progress := &exp.Progress{}
	opts := w.opts
	opts.Progress = progress
	for _, e := range exp.All() {
		var tab *exp.Table
		t0 := time.Now()
		err := it.timed("run", func() error {
			var err error
			tab, err = e.Run(opts)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if !it.traced {
			w.expWall[e.ID] = append(w.expWall[e.ID], time.Since(t0).Seconds())
		}
		if err := it.untimed("verify", func() error {
			var b bytes.Buffer
			if _, err := tab.WriteTo(&b); err != nil {
				return err
			}
			return w.gate.check("table."+e.ID, b.String())
		}); err != nil {
			return err
		}
	}
	w.runs = append(w.runs, float64(progress.Snapshot().RunsDone))
	return nil
}

func (w *sweepWorkload) layerMetrics(m map[string]metric, _ float64) {
	for _, name := range []string{
		"sim.handoffs", "sim.fast_steps", "core.atc_hits", "core.read_faults",
		"core.write_faults", "core.replications", "core.migrations", "core.invalidations",
		"core.freezes", "core.shootdowns", "core.pt_walks", "core.pt_deferred",
		"core.flush_ipis", "mach.accesses", "mach.words",
	} {
		m[name] = metric{notMeasured, "count"}
	}
	m["sim.fast_ratio"] = metric{notMeasured, "ratio"}
	m["sim.dispatches_per_s"] = metric{notMeasured, "1/s"}
	m["sim.sim_s"] = metric{notMeasured, "sim_s"}
	m["core.atc_hit_ratio"] = metric{notMeasured, "ratio"}
	m["mach.queue_wait_sim_ms"] = metric{notMeasured, "sim_ms"}
	m["span.fault_p50_sim_us"] = metric{notMeasured, "sim_us"}
	m["span.fault_p99_sim_us"] = metric{notMeasured, "sim_us"}
	m["exp.runs"] = metric{median(w.runs), "count"}
	var total float64
	for _, e := range exp.All() {
		total += median(w.expWall[e.ID])
	}
	for _, e := range exp.All() {
		m["exp.share_pct."+e.ID] = metric{100 * median(w.expWall[e.ID]) / total, "%"}
	}
}
