package metrics

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/hist"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
)

// Distributional telemetry schema (schema version 2). A report built
// from a run with histograms or time series enabled carries two extra
// sections — "histograms" and "series" — and bumps its schema_version
// to SchemaVersionTelemetry. Both sections are strictly additive and
// omitted entirely when telemetry was not enabled, so zero-config
// output stays byte-identical to schema version 1 (a golden test pins
// this).
//
// Like the rest of the schema, durations are int64 nanoseconds of
// virtual time with an `_ns` suffix, and fields are only ever added.

// SchemaVersionTelemetry is the schema version a Report carries once
// telemetry sections are attached (AttachTelemetry).
const SchemaVersionTelemetry = 2

// BucketMetrics is one non-empty histogram bucket: Count samples whose
// values fell in [LoNs, HiNs].
type BucketMetrics struct {
	LoNs  int64 `json:"lo_ns"`
	HiNs  int64 `json:"hi_ns"`
	Count int64 `json:"count"`
}

// HistogramMetrics is one latency distribution: exact count, sum and
// max alongside log-bucketed percentiles (upper bucket bounds, so each
// quantile is exact to within the bucket's <=12.5% relative width and
// never exceeds the true maximum). Buckets, when present, list only
// non-empty buckets.
type HistogramMetrics struct {
	Name    string          `json:"name"`
	Count   int64           `json:"count"`
	SumNs   int64           `json:"sum_ns"`
	MaxNs   int64           `json:"max_ns"`
	P50Ns   int64           `json:"p50_ns"`
	P90Ns   int64           `json:"p90_ns"`
	P99Ns   int64           `json:"p99_ns"`
	P999Ns  int64           `json:"p999_ns"`
	Buckets []BucketMetrics `json:"buckets,omitempty"`
}

// FromHist converts one histogram. withBuckets selects whether the
// sparse bucket listing rides along (machine-wide sections carry it;
// per-node sections keep percentiles only, for size).
func FromHist(name string, h *hist.H, withBuckets bool) HistogramMetrics {
	m := HistogramMetrics{
		Name:   name,
		Count:  h.Count(),
		SumNs:  h.Sum(),
		MaxNs:  h.Max(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
	}
	if withBuckets {
		h.Each(func(lo, hi, count int64) {
			m.Buckets = append(m.Buckets, BucketMetrics{LoNs: lo, HiNs: hi, Count: count})
		})
	}
	return m
}

// NodeHistograms is one node's per-cause charge distributions
// (percentiles only; the machine-wide section has the buckets).
type NodeHistograms struct {
	Node   int                `json:"node"`
	Causes []HistogramMetrics `json:"causes"`
}

// Histograms is the report's "histograms" section. Charges are
// machine-wide per-cause charge distributions (every node's histogram
// for that cause merged); Ops are whole-operation distributions from
// the span recorder (full fault, shootdown round, block transfer);
// Nodes breaks the charge distributions down per node. Empty
// distributions are omitted throughout, so the section's size tracks
// what actually ran.
type Histograms struct {
	Charges []HistogramMetrics `json:"charges"`
	Ops     []HistogramMetrics `json:"ops,omitempty"`
	Nodes   []NodeHistograms   `json:"nodes,omitempty"`
}

// BuildHistograms assembles the histograms section from an engine with
// charge histograms enabled and/or a span recorder with op histograms
// enabled. Returns nil when neither source is recording — the
// omitempty contract for unconfigured runs.
func BuildHistograms(e *sim.Engine, rec *span.Recorder) *Histograms {
	chargesOn := e != nil && e.ChargeHistogramsEnabled()
	opsOn := rec != nil && rec.OpHistsEnabled()
	if !chargesOn && !opsOn {
		return nil
	}
	out := &Histograms{}
	if chargesOn {
		nodes := e.ChargeHistNodes()
		var merged hist.H
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			merged.Reset()
			for n := 0; n < nodes; n++ {
				if h := e.ChargeHist(n, c); h != nil {
					merged.Merge(h)
				}
			}
			if !merged.Empty() {
				out.Charges = append(out.Charges, FromHist(c.String(), &merged, true))
			}
		}
		for n := 0; n < nodes; n++ {
			nh := NodeHistograms{Node: n}
			for c := sim.Cause(0); c < sim.NumCauses; c++ {
				if h := e.ChargeHist(n, c); h != nil && !h.Empty() {
					nh.Causes = append(nh.Causes, FromHist(c.String(), h, false))
				}
			}
			if len(nh.Causes) > 0 {
				out.Nodes = append(out.Nodes, nh)
			}
		}
	}
	if opsOn {
		for _, k := range span.Kinds() {
			if h := rec.OpHist(k); h != nil && !h.Empty() { // nil: not histogrammed
				out.Ops = append(out.Ops, FromHist(k.String(), h, true))
			}
		}
	}
	return out
}

// SeriesWindow is one window of the report's time series: per-cause
// charged time and per-operation counts during [StartNs,
// StartNs+WidthNs). All-zero rows are omitted from the report, and
// within a window only non-zero entries appear, so the stream size
// tracks activity.
type SeriesWindow struct {
	StartNs int64            `json:"start_ns"`
	TimeNs  map[string]int64 `json:"time_ns,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// SeriesMetrics is the report's "series" section: rate curves over
// simulated time in fixed-width windows. SpilledWindows counts windows
// below the retained rings' range (their contents are preserved in the
// sources' spill accumulators but not listed here); zero means the
// listing is complete.
type SeriesMetrics struct {
	WidthNs        int64          `json:"width_ns"`
	SpilledWindows int64          `json:"spilled_windows,omitempty"`
	Windows        []SeriesWindow `json:"windows"`
}

// BuildSeries assembles the series section from the engine's per-cause
// charged-time series and the span recorder's operation-count series
// (either may be nil; both nil returns nil). When both are present they
// must share a window width — kernel.EnableSeries configures them
// together.
func BuildSeries(cause, counts *timeseries.Series) *SeriesMetrics {
	if cause == nil && counts == nil {
		return nil
	}
	var width int64
	lo, hi := int64(0), int64(-1)
	span0 := func(s *timeseries.Series) {
		if s == nil || s.Empty() {
			return
		}
		if hi < lo {
			lo, hi = s.LoWindow(), s.HiWindow()
			return
		}
		if s.LoWindow() < lo {
			lo = s.LoWindow()
		}
		if s.HiWindow() > hi {
			hi = s.HiWindow()
		}
	}
	out := &SeriesMetrics{}
	if cause != nil {
		width = cause.Width()
		out.SpilledWindows += cause.SpilledWindows()
	}
	if counts != nil {
		if width == 0 {
			width = counts.Width()
		} else if counts.Width() != width {
			panic(fmt.Sprintf("metrics: series width mismatch: %d vs %d", width, counts.Width()))
		}
		out.SpilledWindows += counts.SpilledWindows()
	}
	out.WidthNs = width
	span0(cause)
	span0(counts)
	for w := lo; w <= hi; w++ {
		sw := SeriesWindow{StartNs: w * width}
		if cause != nil {
			for c := sim.Cause(0); c < sim.NumCauses; c++ {
				if v := cause.At(w, int(c)); v != 0 {
					if sw.TimeNs == nil {
						sw.TimeNs = make(map[string]int64)
					}
					sw.TimeNs[c.String()] = v
				}
			}
		}
		if counts != nil {
			for col := 0; col < span.NumCounts; col++ {
				if v := counts.At(w, col); v != 0 {
					if sw.Counts == nil {
						sw.Counts = make(map[string]int64)
					}
					sw.Counts[span.CountName(col)] = v
				}
			}
		}
		if sw.TimeNs != nil || sw.Counts != nil {
			out.Windows = append(out.Windows, sw)
		}
	}
	return out
}

// AttachTelemetry adds the telemetry sections to a report and bumps its
// schema version. A no-op when both sections are nil, so reports from
// unconfigured runs keep schema version 1 and byte-identical output.
func (r *Report) AttachTelemetry(h *Histograms, s *SeriesMetrics) {
	if h == nil && s == nil {
		return
	}
	r.Histograms, r.Series = h, s
	r.SchemaVersion = SchemaVersionTelemetry
}

// CheckHistConservation verifies that the charge histograms account for
// every nanosecond the accounts do: for every node and every classified
// cause, the histogram's exact Sum equals the node account's entry, and
// its bucket counts total its sample count. Histograms must have been
// enabled before the run (a partial recording cannot conserve). accts
// is typically Engine.NodeAccounts().
func CheckHistConservation(e *sim.Engine, accts []sim.Account) error {
	if e == nil || !e.ChargeHistogramsEnabled() {
		return fmt.Errorf("metrics: charge histograms not enabled")
	}
	for n := range accts {
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			if c == sim.CauseUnattributed {
				continue // histograms record classified charges only
			}
			var sum, count, btotal int64
			if h := e.ChargeHist(n, c); h != nil {
				sum, count, btotal = h.Sum(), h.Count(), h.BucketTotal()
			}
			if want := int64(accts[n][c]); sum != want {
				return fmt.Errorf("metrics: node %d cause %v: histogram sum %d != account %d", n, c, sum, want)
			}
			if btotal != count {
				return fmt.Errorf("metrics: node %d cause %v: bucket total %d != count %d", n, c, btotal, count)
			}
		}
	}
	return nil
}

// CheckOpHistConservation verifies the whole-operation histograms
// against a complete retained span recording: for every histogrammed
// kind, the histogram's count and sum must equal the number and total
// duration of the retained spans of that kind, and each of those spans
// must carry a cause in span.ReconciledCauses, so no histogrammed
// operation escapes span/account reconciliation. The recorder must
// have dropped nothing (Recorder.Dropped() == 0) for the comparison to
// be meaningful; a nonzero drop count is an error here.
func CheckOpHistConservation(rec *span.Recorder, spans []span.Span) error {
	if rec == nil || !rec.OpHistsEnabled() {
		return fmt.Errorf("metrics: op histograms not enabled")
	}
	if d := rec.Dropped(); d != 0 {
		return fmt.Errorf("metrics: span recording dropped %d spans; op conservation unverifiable", d)
	}
	var reconciled [sim.NumCauses]bool
	for _, c := range span.ReconciledCauses {
		reconciled[c] = true
	}
	kinds := span.Kinds()
	count, sum := make([]int64, len(kinds)), make([]int64, len(kinds))
	for _, sp := range spans {
		if rec.OpHist(sp.Kind) == nil {
			continue // not histogrammed
		}
		if !reconciled[sp.Cause] {
			return fmt.Errorf("metrics: %v span %d carries cause %v, which is not reconciled", sp.Kind, sp.ID, sp.Cause)
		}
		count[sp.Kind]++
		sum[sp.Kind] += int64(sp.Dur())
	}
	for _, k := range kinds {
		h := rec.OpHist(k)
		if h == nil {
			continue
		}
		if h.Count() != count[k] || h.Sum() != sum[k] {
			return fmt.Errorf("metrics: kind %v: histogram count/sum %d/%d != spans %d/%d",
				k, h.Count(), h.Sum(), count[k], sum[k])
		}
		if h.BucketTotal() != h.Count() {
			return fmt.Errorf("metrics: kind %v: bucket total %d != count %d", k, h.BucketTotal(), h.Count())
		}
	}
	return nil
}

// CheckSeriesConservation verifies the cause series against the
// machine-wide account: for every classified cause, the series' exact
// total (retained windows plus spill) must equal the account entry.
// total is typically Engine.TotalAccount().
func CheckSeriesConservation(e *sim.Engine, total sim.Account) error {
	s := e.CauseSeries()
	if s == nil {
		return fmt.Errorf("metrics: cause series not enabled")
	}
	for c := sim.Cause(0); c < sim.NumCauses; c++ {
		if c == sim.CauseUnattributed {
			continue
		}
		if got, want := s.Total(int(c)), int64(total[c]); got != want {
			return fmt.Errorf("metrics: cause %v: series total %d != account %d", c, got, want)
		}
	}
	return nil
}

// CheckEventConservation verifies that the three views of the protocol
// events core.System.note feeds agree. Per event kind, the trace's count
// must equal the report's sum over pages. Per count-series column that
// events feed (faults, freezes, thaws), the series' exact total (spill
// included) must equal the report's sum over the kinds whose CountCol
// is that column. A dropped trace or a disabled series is an error.
func CheckEventConservation(r core.Report, events []core.Event, dropped int64, counts *timeseries.Series) error {
	if dropped != 0 {
		return fmt.Errorf("metrics: trace dropped %d events; event conservation unverifiable", dropped)
	}
	if counts == nil {
		return fmt.Errorf("metrics: count series not enabled")
	}
	traced := map[core.EventKind]int64{}
	for _, ev := range events {
		traced[ev.Kind]++
	}
	reported := map[core.EventKind]int64{}
	for _, pg := range r.Pages {
		for k, n := range map[core.EventKind]int64{
			core.EvReadFault: pg.ReadFaults, core.EvWriteFault: pg.WriteFaults,
			core.EvReplication: pg.Replications, core.EvMigration: pg.Migrations,
			core.EvInvalidation: pg.Invalidated, core.EvRemoteMap: pg.RemoteMaps,
			core.EvFreeze: pg.Freezes, core.EvThaw: pg.Thaws,
		} {
			reported[k] += n
		}
	}
	want := map[int]int64{} // series column -> expected total
	for _, k := range core.EventKinds() {
		if traced[k] != reported[k] {
			return fmt.Errorf("metrics: %v: trace has %d events, report %d", k, traced[k], reported[k])
		}
		if col := k.CountCol(); col >= 0 {
			want[col] += reported[k]
		}
	}
	for col := 0; col < span.NumCounts; col++ {
		if w, fed := want[col]; fed {
			if got := counts.Total(col); got != w {
				return fmt.Errorf("metrics: %s: series total %d != report %d", span.CountName(col), got, w)
			}
		}
	}
	return nil
}
