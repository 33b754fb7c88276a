package apps

// Program oracle for the engine's owed handoffs (sim.Thread.AdvanceLater).
// Every program runs twice: on a fast-path engine, where a memory
// reference's closing charge owes its handoff and a following Compute
// or backoff takes it merged, and on the reference scheduler
// (SetFastPath(false)), where AdvanceLater is a plain Advance. With
// every telemetry sink on — charge histograms, spans, the event trace
// and a cause series whose ring is small enough to spill — the metrics
// JSON, timeline and span bytes must be identical. The one recording
// order the merge changes is an owed thread's charge landing before
// earlier threads' charges, and a spilling series ring is where that
// order could show.

import (
	"bytes"
	"fmt"
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/uma"
)

// The oracle's cause series: narrow windows in a short ring, so every
// program below spills.
const (
	oracleWindow  = 20 * sim.Microsecond
	oracleWindows = 8
)

// oracleOut is everything one run exports.
type oracleOut struct {
	metrics, timeline, spans []byte
	spilled                  int64
}

// runOracleKernel runs prog on k with every sink on and the fast path
// set to fast, and returns the exports.
func runOracleKernel(t *testing.T, k *kernel.Kernel, fast bool, prog func() (sim.Time, error)) oracleOut {
	t.Helper()
	k.Engine().SetFastPath(fast)
	k.EnableTrace(1 << 18)
	k.EnableSpans(0)
	k.EnableHistograms()
	k.EnableSeries(oracleWindow, oracleWindows)
	elapsed, err := prog()
	if err != nil {
		t.Fatalf("fast=%t: %v", fast, err)
	}
	var out oracleOut
	ssec := metrics.BuildSeries(k.CauseSeries(), k.Spans().CountSeries())
	mr := metrics.BuildReport("oracle", k.Nodes(), elapsed, k.NodeAccounts(), k.Report())
	mr.AttachTelemetry(metrics.BuildHistograms(k.Engine(), k.Spans()), ssec)
	var b bytes.Buffer
	if err := metrics.WriteJSON(&b, mr); err != nil {
		t.Fatal(err)
	}
	out.metrics = b.Bytes()
	events, dropped := k.Trace()
	if dropped > 0 {
		t.Fatalf("fast=%t: trace dropped %d events; raise its capacity", fast, dropped)
	}
	var tl bytes.Buffer
	if err := metrics.WriteTimelineJSONL(&tl, events, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	out.timeline = tl.Bytes()
	var sp bytes.Buffer
	if err := span.WriteChrome(&sp, k.Spans().Spans(), nil); err != nil {
		t.Fatal(err)
	}
	out.spans = sp.Bytes()
	out.spilled = ssec.SpilledWindows
	return out
}

// compareOracle runs the program both ways and diffs the exports.
func compareOracle(t *testing.T, run func(fast bool) oracleOut) {
	t.Helper()
	ref, fast := run(false), run(true)
	for _, c := range []struct {
		name      string
		ref, fast []byte
	}{
		{"metrics JSON", ref.metrics, fast.metrics},
		{"timeline", ref.timeline, fast.timeline},
		{"spans", ref.spans, fast.spans},
	} {
		if !bytes.Equal(c.ref, c.fast) {
			t.Errorf("%s differs between the reference scheduler (%d bytes) and the fast path (%d bytes)",
				c.name, len(c.ref), len(c.fast))
		}
	}
	if ref.spilled == 0 {
		t.Errorf("the cause series never spilled; shrink the oracle ring")
	}
}

// oraclePlatform boots a fresh platform on kcfg and runs prog on it.
func oraclePlatform(t *testing.T, kcfg kernel.Config, prog func(*PlatinumPlatform) error) func(bool) oracleOut {
	return func(fast bool) oracleOut {
		pl, err := NewPlatinumPlatform(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		return runOracleKernel(t, pl.K, fast, func() (sim.Time, error) {
			err := prog(pl)
			return pl.Elapsed(), err
		})
	}
}

func TestOracleGauss(t *testing.T) {
	cfg := DefaultGaussConfig(48, 8)
	compareOracle(t, oraclePlatform(t, kernel.DefaultConfig(), func(pl *PlatinumPlatform) error {
		r, err := RunGaussPlatinum(pl, cfg)
		if err == nil && r.Checksum != GaussReferenceChecksum(cfg) {
			err = fmt.Errorf("gauss checksum %#x, want %#x", r.Checksum, GaussReferenceChecksum(cfg))
		}
		return err
	}))
}

func TestOracleGaussSMP(t *testing.T) {
	cfg := DefaultGaussConfig(32, 4)
	compareOracle(t, oraclePlatform(t, kernel.DefaultConfig(), func(pl *PlatinumPlatform) error {
		r, err := RunGaussSMP(pl, cfg)
		if err == nil && r.Checksum != GaussReferenceChecksum(cfg) {
			err = fmt.Errorf("gauss-smp checksum %#x, want %#x", r.Checksum, GaussReferenceChecksum(cfg))
		}
		return err
	}))
}

func TestOracleMergeSort(t *testing.T) {
	cfg := DefaultMergeSortConfig(8)
	cfg.Words = 1 << 12
	compareOracle(t, oraclePlatform(t, kernel.DefaultConfig(), func(pl *PlatinumPlatform) error {
		r, err := RunMergeSort(pl, cfg)
		if err == nil && !r.Sorted {
			err = fmt.Errorf("mergesort output unsorted")
		}
		return err
	}))
}

// TestOracleTopoMix runs TopoMix on a clustered machine with home-node
// page tables and batched shootdown, so deferred flushes are applied on
// activation (batchActivate).
func TestOracleTopoMix(t *testing.T) {
	const nodes, cluster = 8, 4
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
				dist[i*nodes+j] = 2000
			}
		}
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = &mach.Topology{Name: "oracle-cluster-8x4", Base: base, Distance: dist,
		Levels: []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}}}
	kcfg.Core.FramesPerModule = 32
	kcfg.Core.Policy = core.AlwaysCache{}
	kcfg.Core.PageTables = core.PTConfig{Mode: core.PTHome, BatchShootdown: true}
	compareOracle(t, oraclePlatform(t, kcfg, func(pl *PlatinumPlatform) error {
		_, err := RunTopoMix(pl, DefaultTopoMixConfig(nodes, 256))
		return err
	}))
}

// TestOracleAnecdote runs the §4.2 frozen-lock anecdote with the defrost
// daemon sweeping every millisecond.
func TestOracleAnecdote(t *testing.T) {
	cfg := DefaultAnecdoteConfig(6)
	cfg.Iters = 2000
	cfg.Defrost = sim.Millisecond
	compareOracle(t, func(fast bool) oracleOut {
		kcfg := kernel.DefaultConfig()
		kcfg.Core.DefrostPeriod = cfg.Defrost
		k, err := kernel.Boot(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		return runOracleKernel(t, k, fast, func() (sim.Time, error) {
			r, err := runAnecdote(k, cfg)
			return r.Elapsed, err
		})
	})
}

// TestOracleMigrateJoin runs threads that share a counter page, migrate
// between processors mid-run, spawn children and join them.
func TestOracleMigrateJoin(t *testing.T) {
	const procs = 6
	compareOracle(t, func(fast bool) oracleOut {
		k, err := kernel.Boot(kernel.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runOracleKernel(t, k, fast, func() (sim.Time, error) {
			sp := k.NewSpace()
			va, err := sp.AllocPages("shared", 2, core.Read|core.Write)
			if err != nil {
				return 0, err
			}
			pw := int64(k.PageWords())
			var workers []*kernel.Thread
			for i := 0; i < procs; i++ {
				i := i
				workers = append(workers, k.Spawn(fmt.Sprintf("w%d", i), i, sp, func(th *kernel.Thread) {
					child := k.Spawn(fmt.Sprintf("c%d", i), (i+3)%procs, sp, func(c *kernel.Thread) {
						for j := 0; j < 20; j++ {
							c.AtomicAdd(va+pw, 1)
							c.Compute(sim.Time(j+1) * sim.Microsecond)
						}
					})
					for j := 0; j < 30; j++ {
						th.AtomicAdd(va, 1)
						th.Compute(sim.Time(3*i+j) * sim.Microsecond)
						th.Read(va + pw)
						if j%10 == 9 {
							th.Migrate((th.Proc() + 1) % procs)
						}
					}
					th.Join(child)
				}))
			}
			var total uint32
			k.Spawn("joiner", 0, sp, func(th *kernel.Thread) {
				for _, w := range workers {
					th.Join(w)
				}
				total = th.Read(va)
			})
			if err := k.Run(); err != nil {
				return 0, err
			}
			if total != procs*30 {
				return 0, fmt.Errorf("counter = %d, want %d", total, procs*30)
			}
			return k.Now(), nil
		})
	})
}

// TestOracleOwedWindows joins threads that exit, and receives from
// threads that send, while the joiner's or the exiting thread's closing
// charge is still owed. Under NeverCache a page-long ReadRange of a
// remote page is one multi-millisecond access, so the owed windows are
// wide, and staggered lifetimes land inside them.
func TestOracleOwedWindows(t *testing.T) {
	const pairs = 12
	compareOracle(t, func(fast bool) oracleOut {
		kcfg := kernel.DefaultConfig()
		kcfg.Core.Policy = core.NeverCache{}
		k, err := kernel.Boot(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		return runOracleKernel(t, k, fast, func() (sim.Time, error) {
			sp := k.NewSpace()
			pw := k.PageWords()
			// Page 2q is read by parent q (modules 12-15), page 2q+1 by
			// its child (modules 8-11).
			data, err := sp.AllocPages("data", 2*pairs, core.Read|core.Write)
			if err != nil {
				return 0, err
			}
			page := func(i int) int64 { return data + int64(i*pw) }
			for q := 0; q < pairs; q++ {
				if err := sp.PlaceAt(page(2*q), 12+q%4); err != nil {
					return 0, err
				}
				if err := sp.PlaceAt(page(2*q+1), 8+q%4); err != nil {
					return 0, err
				}
			}
			port, err := k.NewPort("oracle")
			if err != nil {
				return 0, err
			}
			for q := 0; q < pairs; q++ {
				q := q
				life := sim.Time(q) * 700 * sim.Microsecond
				k.Spawn(fmt.Sprintf("p%d", q), q%8, sp, func(th *kernel.Thread) {
					child := k.Spawn(fmt.Sprintf("c%d", q), (q+4)%8, sp, func(c *kernel.Thread) {
						c.Compute(life)
						c.ReadRange(page(2*q+1), make([]uint32, pw/2))
					})
					th.ReadRange(page(2*q), make([]uint32, pw))
					if q%3 == 2 {
						th.Receive(port)
					}
					th.Join(child)
				})
				if q%3 == 2 {
					k.Spawn(fmt.Sprintf("s%d", q), (q+2)%8, sp, func(th *kernel.Thread) {
						th.Compute(life)
						th.Send(port, []uint32{uint32(q)})
					})
				}
			}
			if err := k.Run(); err != nil {
				return 0, err
			}
			return k.Now(), nil
		})
	})
}

// TestOracleBackpropUMA runs backprop on the UMA machine, whose memory
// ops owe their handoffs too; the exports are the charge histograms and
// the cause series.
func TestOracleBackpropUMA(t *testing.T) {
	cfg := DefaultBackpropConfig(4)
	cfg.Epochs = 6
	run := func(fast bool) oracleOut {
		ucfg := uma.DefaultConfig()
		pl, err := NewUMAPlatform(ucfg)
		if err != nil {
			t.Fatal(err)
		}
		e := pl.M.Engine()
		e.SetFastPath(fast)
		e.EnableChargeHistograms(ucfg.Procs)
		e.EnableCauseSeries(oracleWindow, oracleWindows)
		if _, err := RunBackprop(pl, cfg); err != nil {
			t.Fatalf("fast=%t: %v", fast, err)
		}
		ssec := metrics.BuildSeries(e.CauseSeries(), nil)
		var b bytes.Buffer
		if err := metrics.WriteJSON(&b, struct {
			Elapsed  sim.Time
			Accounts []sim.Account
			Hist     *metrics.Histograms
			Series   *metrics.SeriesMetrics
		}{pl.Elapsed(), pl.Accounts(), metrics.BuildHistograms(e, nil), ssec}); err != nil {
			t.Fatal(err)
		}
		return oracleOut{metrics: b.Bytes(), spilled: ssec.SpilledWindows}
	}
	compareOracle(t, run)
}
