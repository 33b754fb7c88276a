package platinum

// End-to-end conservation of the distributional telemetry: for real
// workloads on real machines — gauss and mergesort on the paper's
// topology, TopoMix on a clustered distance-matrix machine — every
// telemetry sink must reconcile exactly against the ground truth it
// shadows. Charge histograms sum to the per-node accounts, op
// histograms to the retained spans, the cause series (retained windows
// plus spill) to the total account, and the per-page report, trace
// ring and count series to each other. scripts/check-obs.sh runs this
// file as the observability gate.

import (
	"testing"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// newTelemetryPlatform boots a fresh platform (no pooling — each test
// owns its kernel) with every telemetry sink, the event trace and full
// span retention enabled, so the op-histogram and event checks can
// compare against complete records.
func newTelemetryPlatform(t *testing.T, cfg kernel.Config) *apps.PlatinumPlatform {
	t.Helper()
	pl, err := apps.NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.K.EnableTrace(1 << 16)
	pl.K.EnableSpans(0)
	pl.K.EnableHistograms()
	pl.K.EnableSeries(sim.Millisecond, 0)
	return pl
}

// checkAllTelemetry runs every conservation check the metrics package
// exports against the finished platform.
func checkAllTelemetry(t *testing.T, pl *apps.PlatinumPlatform) {
	t.Helper()
	if err := metrics.CheckConservation(pl.K.NodeAccounts()); err != nil {
		t.Errorf("account conservation: %v", err)
	}
	if err := metrics.CheckHistConservation(pl.K.Engine(), pl.K.NodeAccounts()); err != nil {
		t.Errorf("charge-histogram conservation: %v", err)
	}
	rec := pl.K.Spans()
	if err := metrics.CheckOpHistConservation(rec, rec.Spans()); err != nil {
		t.Errorf("op-histogram conservation: %v", err)
	}
	if err := metrics.CheckSeriesConservation(pl.K.Engine(), pl.K.TotalAccount()); err != nil {
		t.Errorf("series conservation: %v", err)
	}
	events, dropped := pl.K.Trace()
	if err := metrics.CheckEventConservation(pl.K.Report(), events, dropped, rec.CountSeries()); err != nil {
		t.Errorf("event conservation: %v", err)
	}
}

func TestTelemetryConservationGauss(t *testing.T) {
	pl := newTelemetryPlatform(t, kernel.DefaultConfig())
	cfg := apps.DefaultGaussConfig(64, 8)
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := apps.GaussReferenceChecksum(cfg); r.Checksum != want {
		t.Errorf("gauss checksum %#x, want %#x (telemetry must not change results)", r.Checksum, want)
	}
	checkAllTelemetry(t, pl)
}

// TestTelemetryConservationThawOnFault runs gauss under the
// thaw-on-fault policy with a 2 ms defrost period, so pages thaw both
// ways: by the defrost daemon and by a fault on a frozen page.
func TestTelemetryConservationThawOnFault(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Core.Policy = core.NewPlatinumPolicy(core.DefaultT1, true)
	kcfg.Core.DefrostPeriod = 2 * sim.Millisecond
	pl := newTelemetryPlatform(t, kcfg)
	if _, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(64, 8)); err != nil {
		t.Fatal(err)
	}
	var thaws int64
	for _, pg := range pl.K.Report().Pages {
		thaws += pg.Thaws
	}
	if thaws == 0 {
		t.Fatal("no page thawed; the run does not exercise the thaw paths")
	}
	checkAllTelemetry(t, pl)
}

func TestTelemetryConservationMergeSort(t *testing.T) {
	pl := newTelemetryPlatform(t, kernel.DefaultConfig())
	r, err := apps.RunMergeSort(pl, apps.DefaultMergeSortConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Error("mergesort output unsorted")
	}
	checkAllTelemetry(t, pl)
}

// TestTelemetryConservationTopoMix exercises the sinks on a generalized
// machine — 16 nodes in 4-node clusters with a non-uniform distance
// matrix and a contended per-cluster switch level — where shootdowns
// and block transfers cross real distance boundaries.
func TestTelemetryConservationTopoMix(t *testing.T) {
	const nodes, clusterSize, far = 16, 4, 2000
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	dist := make([]int, nodes*nodes)
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i/clusterSize == j/clusterSize {
				dist[i*nodes+j] = mach.DistScale
			} else {
				dist[i*nodes+j] = far
			}
		}
	}
	domain := make([]int, nodes)
	for i := range domain {
		domain[i] = i / clusterSize
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = &mach.Topology{
		Name:     "telemetry-cluster-16x4",
		Base:     base,
		Distance: dist,
		Levels:   []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}},
	}
	// TopoMix touches few pages per module; small frame arrays keep the
	// 16-node machine's metadata cheap (mirrors the topo sweeps).
	kcfg.Core.FramesPerModule = 32

	pl := newTelemetryPlatform(t, kcfg)
	if _, err := apps.RunTopoMix(pl, apps.DefaultTopoMixConfig(nodes, 256)); err != nil {
		t.Fatal(err)
	}
	checkAllTelemetry(t, pl)
}
