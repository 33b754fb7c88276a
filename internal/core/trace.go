package core

import (
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Event tracing: the §9 "instrumentation interface to the kernel to
// help interpret its behavior". When enabled, the coherent memory
// system records one event per protocol action with its virtual
// timestamp, so tools can reconstruct per-page and per-phase behaviour
// (the aggregate counters in Report answer "how much"; the trace
// answers "when").

// EventKind classifies a protocol event. It also indexes the per-page
// counters in CpageStats.Events.
type EventKind uint8

// Protocol event kinds.
const (
	EvReadFault    EventKind = iota // a read fault
	EvWriteFault                    // a write fault
	EvReplication                   // a copy created on a read miss
	EvMigration                     // the copy moved on a write miss
	EvInvalidation                  // a shootdown recorded as invalidation history
	EvRemoteMap                     // a fault resolved with a remote mapping
	EvFreeze                        // the policy froze the page
	EvThaw                          // the defrost daemon or a thaw-on-fault policy thawed it

	// evKindCount counts the kinds above; a kind without a row in
	// eventKinds fails the sentinel test.
	evKindCount
)

// EventClass is the role trace analysis gives an event kind. The zero
// value is invalid, so a table row without a class fails the sentinel
// test.
type EventClass uint8

// Event classes.
const (
	ClassFault  EventClass = iota + 1 // a read or write fault
	ClassMove                         // a copy replicated or migrated
	ClassFreeze                       // the page froze
	ClassThaw                         // the page thawed
	ClassOther                        // history only: no analysis counts it
)

// eventKinds is the one table of protocol event kinds: each row holds
// the kind's hyphenated name, used in trace listings and the timeline
// JSONL export (e.g. "read-fault"), its class, and the span
// count-series column note feeds for it, or -1 when it has none.
var eventKinds = [evKindCount]struct {
	name  string
	class EventClass
	col   int
}{
	EvReadFault:    {"read-fault", ClassFault, span.CountFault},
	EvWriteFault:   {"write-fault", ClassFault, span.CountFault},
	EvReplication:  {"replication", ClassMove, -1},
	EvMigration:    {"migration", ClassMove, -1},
	EvInvalidation: {"invalidation", ClassOther, -1},
	EvRemoteMap:    {"remote-map", ClassOther, -1},
	EvFreeze:       {"freeze", ClassFreeze, span.CountFreeze},
	EvThaw:         {"thaw", ClassThaw, span.CountThaw},
}

// EventKinds returns every event kind, in declaration order, for code
// that iterates over all kinds (summaries, sentinel tests) without
// hard-coding the first and last kind.
func EventKinds() []EventKind {
	kinds := make([]EventKind, evKindCount)
	for i := range kinds {
		kinds[i] = EventKind(i)
	}
	return kinds
}

// String returns the kind's name from the event table.
func (k EventKind) String() string {
	if k < evKindCount && eventKinds[k].name != "" {
		return eventKinds[k].name
	}
	return "event(?)"
}

// Class returns the kind's class from the event table (zero, which is
// invalid, for an unknown kind).
func (k EventKind) Class() EventClass {
	if k < evKindCount {
		return eventKinds[k].class
	}
	return 0
}

// CountCol returns the span count-series column the kind feeds, or -1
// when it feeds none.
func (k EventKind) CountCol() int {
	if k < evKindCount {
		return eventKinds[k].col
	}
	return -1
}

// Event is one recorded protocol action.
type Event struct {
	Time  sim.Time  // when the action occurred (virtual)
	Kind  EventKind // what happened
	Proc  int       // processor involved (-1 when not applicable)
	Cpage int64     // coherent page id
}

// tracer buffers events up to a fixed capacity, counting overflow.
type tracer struct {
	events  []Event // capacity fixed by EnableTrace
	dropped int64
}

// EnableTrace starts recording protocol events, keeping at most capacity
// of them (further events are counted but dropped). Calling it again
// resets the buffer.
func (s *System) EnableTrace(capacity int) {
	if capacity <= 0 {
		s.tr = nil
		return
	}
	s.tr = &tracer{events: make([]Event, 0, capacity)}
}

// Trace returns the recorded events in order, plus how many were
// dropped after the buffer filled.
func (s *System) Trace() (events []Event, dropped int64) {
	if s.tr == nil {
		return nil, 0
	}
	return s.tr.events, s.tr.dropped
}

// note records one protocol event: the one funnel every protocol fact
// passes through. It counts the event on the page (the §4.2 report),
// in the count series when the kind has a column there, and in the
// trace ring when tracing is enabled, so the three views cannot
// disagree (metrics.CheckEventConservation holds them to it).
//
//platinum:hotpath
func (s *System) note(at sim.Time, kind EventKind, proc int, cp *Cpage) {
	cp.Stats.Events[kind]++
	if col := eventKinds[kind].col; col >= 0 {
		s.rec.CountEvent(at, col)
	}
	if s.tr == nil {
		return
	}
	if len(s.tr.events) == cap(s.tr.events) {
		s.tr.dropped++
		return
	}
	s.tr.events = append(s.tr.events, Event{Time: at, Kind: kind, Proc: proc, Cpage: cp.id}) //lint:ignore platinum/hotalloc below the capacity EnableTrace preallocated, so it never grows
}
