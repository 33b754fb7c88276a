// Package span is the fixture stub of the real internal/span: the Kind
// enum (for exhaustiveevent) and the cause lists histcause reads.
package span

import "platinum/internal/sim"

// Kind classifies a span.
type Kind uint8

// The declared span kinds.
const (
	KindFault Kind = iota
	KindSlice
)

// ReconciledCauses is the fixture copy of the reconciliation set the
// histcause analyzer reads.
var ReconciledCauses = []sim.Cause{
	sim.CauseFault,
	sim.CauseRetry,
}

// HistogramCauses lists the histogrammed causes; CausePmapWalk is
// deliberately missing from ReconciledCauses above so the analyzer has
// a violation to catch.
var HistogramCauses = []sim.Cause{
	sim.CauseFault,
	sim.CausePmapWalk, // want `histogrammed cause CausePmapWalk does not appear in ReconciledCauses`
}
