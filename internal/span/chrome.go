package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export (the JSON Object Format consumed by
// Perfetto and chrome://tracing). Each simulated processor becomes a
// trace process with one track per simulation thread that ran on it;
// a synthetic "pages" process carries one async track per coherent
// page so a page's fault and thaw history can be read as a timeline
// even though the spans were recorded on many different threads.

// Synthetic process ids for spans with no processor, the per-page
// async tracks, and the machine-wide counter tracks. Real processors
// use their own ids, which are always far below these.
const (
	chromeNoProcPid  = 1 << 20
	chromePagePid    = 1<<20 + 1
	chromeCounterPid = 1<<20 + 2
)

// chromeEvent is one trace event. Timestamps and durations are
// microseconds; virtual time is integer nanoseconds, so ts = ns/1000
// is exact to the three decimal places float64 easily carries.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON document.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func usec(ns int64) float64 { return float64(ns) / 1000.0 }

// spanPid maps a span to its trace process: its processor, or the
// synthetic no-processor process.
func spanPid(sp Span) int64 {
	if sp.Proc < 0 {
		return chromeNoProcPid
	}
	return int64(sp.Proc)
}

// CounterPoint is one sample of a counter track: the counter takes
// Value at virtual time Ts and holds it until the next point.
type CounterPoint struct {
	Ts    int64 // virtual time, ns
	Value float64
}

// CounterTrack is one named counter rendered as its own chart row in
// Perfetto — a rate curve (faults per window, remote-access fraction)
// alongside the span timeline it explains.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WriteChrome writes spans as Chrome trace-event JSON. Every span
// becomes a complete ("X") event on (pid = processor, tid = recording
// thread); fault and thaw spans are mirrored as async ("b"/"e") events
// on the per-page process so each page gets its own causal timeline.
// Each counter track (nil for none) becomes a sequence of counter
// ("C") events on a synthetic "counters" process, charted by Perfetto
// as a value-over-time row. Tracks are emitted in the order given —
// callers keep that order deterministic.
func WriteChrome(w io.Writer, spans []Span, counters []CounterTrack) error {
	ordered := append([]Span(nil), spans...)
	sortSpans(ordered)

	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, 2*len(ordered)+16)}

	// Track names: a slice span names its thread's track; anything else
	// seen first leaves a generic name.
	type track struct{ pid, tid int64 }
	names := make(map[track]string)
	pids := make(map[int64]bool)
	pages := make(map[int64]bool)
	for _, sp := range ordered {
		tr := track{spanPid(sp), int64(sp.Track)}
		pids[tr.pid] = true
		if sp.Kind == KindSlice && sp.NoteText() != "" {
			names[tr] = sp.NoteText()
		} else if _, ok := names[tr]; !ok {
			names[tr] = fmt.Sprintf("thread %d", sp.Track)
		}
		if sp.Page >= 0 && (sp.Kind == KindFault || sp.Kind == KindThaw) {
			pages[sp.Page] = true
		}
	}
	for pid := range pids {
		name := fmt.Sprintf("proc %d", pid)
		if pid == chromeNoProcPid {
			name = "unplaced"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	if len(pages) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: chromePagePid,
			Args: map[string]any{"name": "pages"},
		})
	}
	if len(counters) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: chromeCounterPid,
			Args: map[string]any{"name": "counters"},
		})
	}
	for tr, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": name},
		})
	}
	for page := range pages {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePagePid, Tid: page,
			Args: map[string]any{"name": fmt.Sprintf("page %d", page)},
		})
	}
	// Deterministic metadata order (map iteration is not).
	sortChrome(doc.TraceEvents)

	for _, sp := range ordered {
		dur := usec(int64(sp.End - sp.Start))
		args := map[string]any{
			"span_id": int64(sp.ID),
			"cause":   sp.Cause.String(),
			"self_ns": int64(sp.Self),
		}
		if sp.Parent != None {
			args["parent"] = int64(sp.Parent)
		}
		if sp.Page >= 0 {
			args["page"] = sp.Page
		}
		if sp.State != "" {
			args["state"] = sp.State
			args["dir_mask"] = sp.DirMask
		}
		if note := sp.NoteText(); note != "" {
			args["note"] = note
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Kind.String(), Cat: sp.Cause.String(), Ph: "X",
			Ts: usec(int64(sp.Start)), Dur: &dur,
			Pid: spanPid(sp), Tid: int64(sp.Track), Args: args,
		})
		if sp.Page >= 0 && (sp.Kind == KindFault || sp.Kind == KindThaw) {
			// Async mirror on the page's own track. Async events tolerate
			// the overlap that queued concurrent faults produce on a page
			// timeline, which complete events would render as nonsense.
			id := fmt.Sprintf("span-%d", sp.ID)
			pageArgs := map[string]any{"proc": sp.Proc, "note": sp.NoteText()}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: sp.Kind.String(), Cat: "page", Ph: "b", ID: id,
				Ts: usec(int64(sp.Start)), Pid: chromePagePid, Tid: sp.Page,
				Args: pageArgs,
			})
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: sp.Kind.String(), Cat: "page", Ph: "e", ID: id,
				Ts: usec(int64(sp.End)), Pid: chromePagePid, Tid: sp.Page,
			})
		}
	}

	for _, tr := range counters {
		for _, p := range tr.Points {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: tr.Name, Ph: "C", Ts: usec(p.Ts), Pid: chromeCounterPid,
				Args: map[string]any{"value": p.Value},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// sortChrome orders metadata events deterministically: by pid, then
// tid, then name.
func sortChrome(evs []chromeEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Pid != evs[j].Pid {
			return evs[i].Pid < evs[j].Pid
		}
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].Name < evs[j].Name
	})
}
