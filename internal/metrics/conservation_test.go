package metrics

import (
	"testing"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
	"platinum/internal/uma"
)

// End-to-end conservation: after a real application run, every
// processor's per-cause breakdown must sum to exactly the virtual time
// its threads consumed — zero unattributed time, no negative slot.
// This is the invariant that catches a latency charged anywhere in
// core/mach/kernel without a cause tag.

// sumCauses adds the individual cause fields of a Breakdown (not
// TotalNs, which is computed independently from the account).
func sumCauses(b Breakdown) int64 {
	return b.UnattributedNs + b.ComputeNs + b.LocalAccessNs + b.RemoteAccessNs +
		b.BlockTransferNs + b.FaultNs + b.ShootdownNs + b.QueueNs +
		b.SyncNs + b.KernelNs
}

func checkRun(t *testing.T, name string, accts []sim.Account) {
	t.Helper()
	if err := CheckConservation(accts); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var machineTotal int64
	for n, a := range accts {
		b := FromAccount(a)
		if got := sumCauses(b); got != b.TotalNs {
			t.Errorf("%s node %d: causes sum to %d, total is %d", name, n, got, b.TotalNs)
		}
		machineTotal += b.TotalNs
	}
	if machineTotal == 0 {
		t.Fatalf("%s: no time accounted at all", name)
	}
}

func TestConservationGauss8(t *testing.T) {
	pl, err := apps.NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultGaussConfig(64, 8)
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != apps.GaussReferenceChecksum(cfg) {
		t.Fatal("gauss result wrong; accounting test would be meaningless")
	}
	checkRun(t, "gauss", pl.Accounts())

	// The structured report carries the same exact breakdown.
	rep := BuildReport("gauss", 8, r.Elapsed, pl.Accounts(), pl.K.Report())
	if rep.Total.UnattributedNs != 0 {
		t.Errorf("report total has %d unattributed ns", rep.Total.UnattributedNs)
	}
	if got := sumCauses(rep.Total); got != rep.Total.TotalNs {
		t.Errorf("report total causes sum to %d, total is %d", got, rep.Total.TotalNs)
	}
}

func TestConservationMergeSort(t *testing.T) {
	pl, err := apps.NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultMergeSortConfig(8)
	cfg.Words = 1 << 13
	r, err := apps.RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("merge sort output unsorted; accounting test would be meaningless")
	}
	checkRun(t, "mergesort", pl.Accounts())
}

// The UMA comparison machine attributes its costs too.
func TestConservationMergeSortUMA(t *testing.T) {
	pl, err := apps.NewUMAPlatform(uma.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultMergeSortConfig(8)
	cfg.Words = 1 << 12
	r, err := apps.RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("merge sort output unsorted")
	}
	checkRun(t, "mergesort-uma", pl.Accounts())
}

// TestCheckEventConservation checks the three-way event invariant on a
// synthetic run, and that each kind of disagreement between the report,
// the trace and the count series is caught.
func TestCheckEventConservation(t *testing.T) {
	report := core.Report{Pages: []core.PageReport{
		{ID: 1, ReadFaults: 2, WriteFaults: 1, Replications: 1, Freezes: 1, Thaws: 1, RemoteMaps: 1},
		{ID: 2, WriteFaults: 1, Migrations: 1, Invalidated: 1},
	}}
	events := []core.Event{
		{Kind: core.EvReadFault, Cpage: 1}, {Kind: core.EvReplication, Cpage: 1},
		{Kind: core.EvReadFault, Cpage: 1}, {Kind: core.EvWriteFault, Cpage: 1},
		{Kind: core.EvRemoteMap, Cpage: 1}, {Kind: core.EvFreeze, Cpage: 1},
		{Kind: core.EvThaw, Cpage: 1}, {Kind: core.EvWriteFault, Cpage: 2},
		{Kind: core.EvInvalidation, Cpage: 2}, {Kind: core.EvMigration, Cpage: 2},
	}
	series := func(faults, freezes, thaws int64) *timeseries.Series {
		s := timeseries.New(1000, span.NumCounts, 4)
		s.Add(0, span.CountFault, faults)
		s.Add(9000, span.CountFreeze, freezes) // spills: totals still count it
		s.Add(0, span.CountThaw, thaws)
		s.Add(0, span.CountShootdown, 5) // span-fed: not an event column
		return s
	}
	if err := CheckEventConservation(report, events, 0, series(4, 1, 1)); err != nil {
		t.Fatalf("consistent views rejected: %v", err)
	}
	extraThaw := report
	extraThaw.Pages = append([]core.PageReport(nil), report.Pages...)
	extraThaw.Pages[0].Thaws++
	for name, err := range map[string]error{
		"trace drops":         CheckEventConservation(report, events, 1, series(4, 1, 1)),
		"series off":          CheckEventConservation(report, events, 0, nil),
		"missing trace event": CheckEventConservation(report, events[1:], 0, series(4, 1, 1)),
		"report-only thaw":    CheckEventConservation(extraThaw, events, 0, series(4, 1, 1)),
		"series fault":        CheckEventConservation(report, events, 0, series(3, 1, 1)),
		"series freeze":       CheckEventConservation(report, events, 0, series(4, 2, 1)),
		"series thaw":         CheckEventConservation(report, events, 0, series(4, 1, 0)),
	} {
		if err == nil {
			t.Errorf("%s: disagreement not caught", name)
		}
	}
}

// TestOpHistRejectsUnreconciledCause checks that the op-histogram check
// rejects a histogrammed span whose cause span.Reconcile does not
// cover, so no histogrammed operation escapes reconciliation, while a
// non-histogrammed kind may carry such a cause.
func TestOpHistRejectsUnreconciledCause(t *testing.T) {
	rec := span.NewRecorder(0)
	rec.EnableRetain(0)
	rec.EnableOpHists()
	rec.Record(span.Span{Kind: span.KindFault, Cause: sim.CauseFault, Start: 0, End: 10})
	rec.Record(span.Span{Kind: span.KindQueueWait, Cause: sim.CauseQueue, Start: 2, End: 5})
	if err := CheckOpHistConservation(rec, rec.Spans()); err != nil {
		t.Fatalf("reconciled recording rejected: %v", err)
	}
	rec.Record(span.Span{Kind: span.KindShootdown, Cause: sim.CauseQueue, Start: 10, End: 20})
	if err := CheckOpHistConservation(rec, rec.Spans()); err == nil {
		t.Error("histogrammed span with an unreconciled cause not caught")
	}
}
