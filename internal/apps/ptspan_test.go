package apps

import (
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Conservation and span-reconciliation gates for the page-table variant
// causes (pmap_walk, pt_replicate, batch_flush): on real workloads,
// every nanosecond the variants charge must land in a declared cause
// slot (CheckConservation) and be covered by exactly one span's Self
// time (span.Reconcile — ReconciledCauses includes all three).

// bootPT boots a PLATINUM platform with the given page-table variant
// and optional topology, spans retained.
func bootPT(t *testing.T, pt core.PTConfig, topo *mach.Topology) *PlatinumPlatform {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Core.DefrostPeriod = 2 * sim.Millisecond
	cfg.Core.PageTables = pt
	cfg.Topology = topo
	pl, err := NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	pl.K.EnableSpans(0)
	return pl
}

// checkPTRun validates one variant run end to end: conservation over
// the node accounts, exact per-cause span reconciliation, nesting, and
// that the causes the variant is supposed to exercise actually occur.
func checkPTRun(t *testing.T, pl *PlatinumPlatform, wantCauses []sim.Cause, wantKinds []span.Kind) {
	t.Helper()
	if err := metrics.CheckConservation(pl.Accounts()); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	spans := checkSpans(t, pl)
	acct := pl.K.TotalAccount()
	for _, c := range wantCauses {
		if acct[c] == 0 {
			t.Errorf("cause %v never charged", c)
		}
	}
	have := kinds(spans)
	for _, k := range wantKinds {
		if have[k] == 0 {
			t.Errorf("no %v spans recorded", k)
		}
	}
	// Every charged variant cause must be visible in the span tree too
	// (Reconcile enforces the durations match; this names the causes).
	byCause := make(map[sim.Cause]int)
	for _, sp := range spans {
		if sp.Self > 0 {
			byCause[sp.Cause]++
		}
	}
	for _, c := range wantCauses {
		if byCause[c] == 0 {
			t.Errorf("no spans carry cause %v", c)
		}
	}
}

func TestSpansReconcileGaussPTHome(t *testing.T) {
	pl := bootPT(t, core.PTConfig{Mode: core.PTHome}, nil)
	cfg := DefaultGaussConfig(48, 4)
	res, err := RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatalf("gauss: %v", err)
	}
	if res.Checksum != GaussReferenceChecksum(cfg) {
		t.Fatalf("gauss checksum mismatch: %#x", res.Checksum)
	}
	checkPTRun(t, pl,
		[]sim.Cause{sim.CausePmapWalk},
		[]span.Kind{span.KindPmapWalk})
}

func TestSpansReconcileGaussPTReplicate(t *testing.T) {
	pl := bootPT(t, core.PTConfig{Mode: core.PTReplicate}, nil)
	cfg := DefaultGaussConfig(48, 4)
	res, err := RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatalf("gauss: %v", err)
	}
	if res.Checksum != GaussReferenceChecksum(cfg) {
		t.Fatalf("gauss checksum mismatch: %#x", res.Checksum)
	}
	checkPTRun(t, pl,
		[]sim.Cause{sim.CausePmapWalk, sim.CausePTReplicate},
		[]span.Kind{span.KindPmapWalk, span.KindPTReplicate})
}

func TestSpansReconcileMergeSortPTBatched(t *testing.T) {
	pl := bootPT(t, core.PTConfig{Mode: core.PTHome, BatchShootdown: true}, nil)
	cfg := DefaultMergeSortConfig(4)
	cfg.Words = 1 << 13
	res, err := RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatalf("mergesort: %v", err)
	}
	if !res.Sorted {
		t.Fatal("mergesort output not sorted")
	}
	// Batched-flush costs surface as KindShootTarget children tagged
	// CauseBatchFlush (the initiator-side forced flush); KindBatchFlush
	// spans only appear when a deferral survives to the target's next
	// activation, which this workload's flushes preempt.
	checkPTRun(t, pl,
		[]sim.Cause{sim.CausePmapWalk, sim.CauseBatchFlush},
		[]span.Kind{span.KindPmapWalk, span.KindShootTarget})
}

// clusterTopo returns a nodes-node machine of clusterSize-node
// clusters (far=2000‰ between clusters, contended cluster switches,
// 256-word pages): the pt-variants sweep's shape.
func clusterTopo(name string, nodes, clusterSize int) *mach.Topology {
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	dist := make([]int, nodes*nodes)
	domain := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		domain[i] = i / clusterSize
		for j := 0; j < nodes; j++ {
			if i/clusterSize == j/clusterSize {
				dist[i*nodes+j] = mach.DistScale
			} else {
				dist[i*nodes+j] = 2000
			}
		}
	}
	return &mach.Topology{
		Name:     name,
		Base:     base,
		Distance: dist,
		Levels:   []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}},
	}
}

// TestSpansReconcileTopoMix256PTVariants is the large-machine gate: a
// 256-node clustered topology (16-node clusters, far=2000‰, contended
// cluster switches — the pt-variants sweep's shape), where walks are
// distance-scaled and replica homes are per-cluster rather than
// per-node. Reconciliation must stay exact for every variant.
func TestSpansReconcileTopoMix256PTVariants(t *testing.T) {
	const nodes = 256
	topo := clusterTopo("ptspan-cluster-256", nodes, 16)
	variants := []struct {
		name string
		pt   core.PTConfig
		want []sim.Cause
	}{
		{"pt-home", core.PTConfig{Mode: core.PTHome}, []sim.Cause{sim.CausePmapWalk}},
		{"pt-replicate", core.PTConfig{Mode: core.PTReplicate}, []sim.Cause{sim.CausePmapWalk, sim.CausePTReplicate}},
		{"pt-batched", core.PTConfig{Mode: core.PTHome, BatchShootdown: true}, []sim.Cause{sim.CausePmapWalk, sim.CauseBatchFlush}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := kernel.DefaultConfig()
			cfg.Topology = topo
			cfg.Core.FramesPerModule = 32
			cfg.Core.PageTables = v.pt
			pl, err := NewPlatinumPlatform(cfg)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			pl.K.EnableSpans(0)
			if _, err := RunTopoMix(pl, DefaultTopoMixConfig(nodes, 256)); err != nil {
				t.Fatalf("topomix: %v", err)
			}
			checkPTRun(t, pl, v.want, nil)
		})
	}
}
