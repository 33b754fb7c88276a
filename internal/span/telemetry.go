package span

import (
	"platinum/internal/hist"
	"platinum/internal/sim"
	"platinum/internal/timeseries"
)

// Composite-operation telemetry. Where internal/sim's charge histograms
// see individual charges, the recorder can optionally keep, per span
// kind, a latency histogram of *whole operations* — a full fault from
// handler entry to completion, a complete shootdown round, a block
// transfer — and a windowed count series of operation starts over
// simulated time. The histograms and the span-fed count columns are fed
// from Record, the single funnel every completed span passes through,
// so they are exactly as complete as the flight ring's total count:
// histogram Count sums equal the number of recorded spans of each
// instrumented kind.
//
// Like retention, telemetry is pure bookkeeping on the recording
// thread — no allocation on the record path once enabled, no clock
// access, no yielding — so enabling it cannot change dispatch order or
// any simulation result. It is off by default and off again after
// Reset.

// Count-series columns: one per operation rate the windowed series
// tracks. Shootdown and block-transfer starts come from Record, through
// the col column of kindTable. Faults (read plus write), freezes and
// thaws are protocol events: the core's event funnel (core.System.note)
// counts them through CountEvent, from the same call that feeds the
// per-page report and the trace ring, through the col column of its
// own event table.
const (
	CountFault = iota
	CountShootdown
	CountBlockTransfer
	CountFreeze
	CountThaw

	NumCounts // sentinel: count of series columns
)

// countNames holds each count-series column's stable snake_case name,
// used as the JSON field name in the metrics schema.
var countNames = [NumCounts]string{
	CountFault:         "faults",
	CountShootdown:     "shootdowns",
	CountBlockTransfer: "block_transfers",
	CountFreeze:        "freezes",
	CountThaw:          "thaws",
}

// CountName returns the name of a count-series column.
func CountName(col int) string {
	if col >= 0 && col < NumCounts {
		return countNames[col]
	}
	return "count(?)"
}

// EnableOpHists starts recording one whole-operation latency histogram
// per histogrammed kind (the hist column of kindTable). Call before the run so Count matches the
// recorder's totals; storage from an earlier enable is reused.
func (r *Recorder) EnableOpHists() {
	if r.opHists == nil {
		r.opHists = make([]hist.H, numKinds)
	}
	r.opHistsOn = true
}

// OpHist returns the live whole-operation histogram for kind k, or nil
// when op histograms are off or k is not a histogrammed kind. The
// histogram aliases recorder state: read it only between runs.
func (r *Recorder) OpHist(k Kind) *hist.H {
	if !r.opHistsOn || k >= numKinds || !kindTable[k].hist {
		return nil
	}
	return &r.opHists[k]
}

// OpHistsEnabled reports whether whole-operation histograms are
// recording.
func (r *Recorder) OpHistsEnabled() bool { return r.opHistsOn }

// EnableCountSeries starts counting operation starts (columns CountFault
// .. CountThaw) into windows of the given virtual-time width, retaining
// capWindows windows (<= 0 selects the timeseries default). An earlier
// series on the same recorder is reused.
func (r *Recorder) EnableCountSeries(width sim.Time, capWindows int) {
	if r.counts == nil {
		r.counts = timeseries.New(int64(width), NumCounts, capWindows)
	} else {
		r.counts.Reconfigure(int64(width), NumCounts, capWindows)
	}
	r.countsOn = true
}

// CountSeries returns the live operation-count series (columns indexed
// by the Count* constants), or nil when the series is off. It aliases
// recorder state: read it only between runs.
func (r *Recorder) CountSeries() *timeseries.Series {
	if !r.countsOn {
		return nil
	}
	return r.counts
}

// CountEvent counts one occurrence of a series column at virtual time
// at, for the protocol-event columns (faults, freezes, thaws) the core's
// event funnel feeds. Nil-safe and a no-op when the count series is
// off, so callers need no guard.
//
//platinum:hotpath
func (r *Recorder) CountEvent(at sim.Time, col int) {
	if r == nil || !r.countsOn {
		return
	}
	r.counts.Add(int64(at), col, 1)
}

// recordTelemetry feeds one completed span into whichever sinks are
// enabled: the whole-operation duration histogram for histogrammed
// kinds, and the operation-count series at the span's start time.
// Called from Record only when r.telemetryOn() is true.
//
//platinum:hotpath
func (r *Recorder) recordTelemetry(sp *Span) {
	row := &kindTable[sp.Kind]
	if r.opHistsOn && row.hist {
		r.opHists[sp.Kind].Record(int64(sp.End - sp.Start))
	}
	if r.countsOn && row.col >= 0 {
		r.counts.Add(int64(sp.Start), row.col, 1)
	}
}

// telemetryOn reports whether any span telemetry sink is recording.
//
//platinum:hotpath
func (r *Recorder) telemetryOn() bool { return r.opHistsOn || r.countsOn }

// resetTelemetry returns span telemetry to its boot state (off) while
// keeping the storage both sinks have grown, so a pooled recorder's
// later enable allocates nothing.
func (r *Recorder) resetTelemetry() {
	r.opHistsOn = false
	r.countsOn = false
	for i := range r.opHists {
		r.opHists[i].Reset()
	}
	if r.counts != nil {
		r.counts.Reset()
	}
}
