package apps

import (
	"bytes"
	"fmt"
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// resetWorkload is one verified workload the reset oracle replays.
type resetWorkload struct {
	name string
	run  func(pl *PlatinumPlatform) error
}

// resetWorkloads sizes gauss, mergesort and TopoMix for a 16-node
// machine with 256-word pages, each checking its own answer.
func resetWorkloads() []resetWorkload {
	return []resetWorkload{
		{"gauss", func(pl *PlatinumPlatform) error {
			cfg := DefaultGaussConfig(48, 8)
			res, err := RunGaussPlatinum(pl, cfg)
			if err == nil && res.Checksum != GaussReferenceChecksum(cfg) {
				err = fmt.Errorf("checksum mismatch: %#x", res.Checksum)
			}
			return err
		}},
		{"mergesort", func(pl *PlatinumPlatform) error {
			cfg := DefaultMergeSortConfig(8)
			cfg.Words = 1 << 12
			res, err := RunMergeSort(pl, cfg)
			if err == nil && !res.Sorted {
				err = fmt.Errorf("output not sorted")
			}
			return err
		}},
		{"topomix", func(pl *PlatinumPlatform) error {
			_, err := RunTopoMix(pl, DefaultTopoMixConfig(16, 256))
			return err
		}},
	}
}

// resetArtifacts runs w on pl with trace, spans and histograms enabled
// and returns its exports: the metrics JSON report (histograms
// attached), the fault timeline JSONL and the Chrome span export.
func resetArtifacts(t *testing.T, pl *PlatinumPlatform, w resetWorkload) [3][]byte {
	t.Helper()
	pl.K.EnableTrace(1 << 16)
	pl.K.EnableSpans(0)
	pl.K.EnableHistograms()
	if err := w.run(pl); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var mj, tl, sp bytes.Buffer
	rep := metrics.BuildReport(w.name, pl.Procs(), pl.Elapsed(), pl.Accounts(), pl.K.Report())
	rep.AttachTelemetry(metrics.BuildHistograms(pl.K.Engine(), pl.K.Spans()), nil)
	if err := metrics.WriteJSON(&mj, rep); err != nil {
		t.Fatalf("%s: metrics json: %v", w.name, err)
	}
	events, _ := pl.K.Trace()
	if err := metrics.WriteTimelineJSONL(&tl, events, sim.Millisecond); err != nil {
		t.Fatalf("%s: timeline: %v", w.name, err)
	}
	if err := span.WriteChrome(&sp, pl.K.Spans().Spans()); err != nil {
		t.Fatalf("%s: spans: %v", w.name, err)
	}
	return [3][]byte{mj.Bytes(), tl.Bytes(), sp.Bytes()}
}

// TestResetMatchesFreshBoot is the oracle for platform reuse: a reset
// kernel must leave nothing of its previous run behind. Each workload's
// exports must be byte-identical on a freshly booted platform, on the
// same platform after Reset, and after Reset again following a
// different workload. The machine is a 16-node clustered topology with
// home-node page tables and batched shootdown, so the page-table and
// deferred-invalidation state is reset too.
func TestResetMatchesFreshBoot(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Topology = clusterTopo("reset-cluster-16", 16, 4)
	cfg.Core.DefrostPeriod = 2 * sim.Millisecond
	cfg.Core.PageTables = core.PTConfig{Mode: core.PTHome, BatchShootdown: true}
	exports := [3]string{"metrics JSON", "timeline JSONL", "span export"}
	ws := resetWorkloads()
	for i, w := range ws {
		other := ws[(i+1)%len(ws)]
		t.Run(w.name, func(t *testing.T) {
			pl, err := NewPlatinumPlatform(cfg)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			fresh := resetArtifacts(t, pl, w)
			pl.Reset()
			reset := resetArtifacts(t, pl, w)
			pl.Reset()
			resetArtifacts(t, pl, other)
			pl.Reset()
			after := resetArtifacts(t, pl, w)
			for k, name := range exports {
				if !bytes.Equal(fresh[k], reset[k]) {
					t.Errorf("%s differs between a fresh boot and a reset platform", name)
				}
				if !bytes.Equal(fresh[k], after[k]) {
					t.Errorf("%s differs between a fresh boot and a platform reset after %s", name, other.name)
				}
			}
		})
	}
}
